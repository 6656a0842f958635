//! The application community: many machines running the same application, cooperating
//! to learn, detect, and repair (Section 3 of the paper).
//!
//! Since the `cv-fleet` engine landed, [`Community`] is a thin N=small facade over
//! [`cv_fleet::Fleet`]: every `browse` is a one-presentation epoch, which makes the
//! fleet's batched protocol degenerate to exactly the seed's sequential protocol
//! (digest routing, responder directives, and patch distribution happen in the same
//! order, so presentation counts like "four presentations to a patch" are preserved).
//! The facade also expands the fleet's batched console log back into the legacy
//! per-event [`Message`] stream that tests and harnesses observe. The expanded
//! stream carries the same events with the same payloads; within one browse the
//! interleaving differs slightly from the pre-fleet implementation (observation
//! reports, then failure notifications, then all patch messages — the seed emitted
//! patch messages per location as directives were applied).

use crate::messages::{Message, NodeId};
use cv_core::{ClearViewConfig, Phase, RepairReport};
use cv_fleet::{Fleet, FleetConfig, FleetMessage, PatchPushKind, Presentation};
use cv_inference::LearnedModel;
use cv_isa::{Addr, BinaryImage, Word};
use cv_runtime::{MonitorConfig, RunStatus};

/// The outcome of presenting a page to one community member.
#[derive(Debug, Clone, PartialEq)]
pub struct CommunityOutcome {
    /// The node that processed the page.
    pub node: NodeId,
    /// How the run ended.
    pub status: RunStatus,
    /// What the node rendered.
    pub rendered: Vec<Word>,
    /// True if a monitor blocked the page.
    pub blocked: bool,
}

/// The facade's one fleet shape, shared by fresh construction and snapshot
/// restore: one worker and one manager shard, because a handful of members
/// browsing one page at a time gains nothing from fan-out, single-threaded
/// execution keeps the facade deterministic, and a single manager shard is
/// *exactly* the seed's central responder pass (the shard owns every failure
/// location).
fn facade_fleet_config(node_count: usize, monitors: MonitorConfig) -> FleetConfig {
    FleetConfig::new(node_count.max(1))
        .with_workers(1)
        .with_shards(4)
        .with_manager_shards(1)
        .with_monitors(monitors)
}

/// An application community protected by ClearView.
pub struct Community {
    fleet: Fleet,
    image: BinaryImage,
    monitors: MonitorConfig,
    log: Vec<Message>,
    /// Fleet log batches already expanded into `log`.
    translated: usize,
}

impl Community {
    /// Create a community of `node_count` members running `image` with an empty model.
    pub fn new(image: BinaryImage, config: ClearViewConfig, node_count: usize) -> Self {
        Self::with_monitors(image, config, node_count, MonitorConfig::full())
    }

    /// Create a community with an explicit monitor configuration.
    pub fn with_monitors(
        image: BinaryImage,
        config: ClearViewConfig,
        node_count: usize,
        monitors: MonitorConfig,
    ) -> Self {
        Community {
            fleet: Fleet::new(
                image.clone(),
                config,
                facade_fleet_config(node_count, monitors),
            ),
            image,
            monitors,
            log: Vec::new(),
            translated: 0,
        }
    }

    /// Warm-start a community from a checkpoint previously taken with
    /// [`Community::checkpoint`]: the learned model is restored from the snapshot,
    /// every member inherits the validated repairs, and each repaired location is
    /// Protected immediately — no learning replay, no re-checking.
    pub fn restore(
        image: BinaryImage,
        config: ClearViewConfig,
        node_count: usize,
        monitors: MonitorConfig,
        snapshot: &cv_fleet::Snapshot,
    ) -> Self {
        let mut community = Community {
            fleet: Fleet::from_snapshot(
                image.clone(),
                config,
                facade_fleet_config(node_count, monitors),
                snapshot,
            ),
            image,
            monitors,
            log: Vec::new(),
            translated: 0,
        };
        community.translate_new_batches();
        community
    }

    /// Checkpoint the community's full protection state (invariants, discovered
    /// procedures, net patch plan) as an encodable snapshot.
    pub fn checkpoint(&mut self) -> cv_fleet::Snapshot {
        self.fleet.checkpoint()
    }

    /// Number of community members.
    pub fn node_count(&self) -> usize {
        self.fleet.node_count()
    }

    /// The message log (failure notifications, patch distributions, ...).
    pub fn log(&self) -> &[Message] {
        &self.log
    }

    /// The underlying fleet engine (batched log, metrics, epoch API).
    pub fn fleet(&self) -> &Fleet {
        &self.fleet
    }

    /// The merged, community-wide learned model.
    pub fn model(&self) -> &LearnedModel {
        self.fleet.model()
    }

    /// Maintainer-facing reports for every failure the community has responded to.
    pub fn reports(&self) -> Vec<RepairReport> {
        self.fleet.reports()
    }

    /// True if a successful repair is distributed for the failure at `location`.
    pub fn is_protected_against(&self, location: Addr) -> bool {
        self.fleet.is_protected_against(location)
    }

    /// The response phase for the failure at `location`.
    pub fn phase_of(&self, location: Addr) -> Option<Phase> {
        self.fleet.phase_of(location)
    }

    /// Amortized parallel learning (Section 3.1): the learning pages are divided among
    /// the members round-robin; each member traces only its share, infers invariants
    /// locally, and uploads them; the sharded store merges the uploads into the
    /// community-wide invariant database.
    ///
    /// Runs that fail or crash are discarded, so erroneous executions never contribute
    /// invariants.
    pub fn distributed_learning(&mut self, pages: &[Vec<Word>]) {
        self.fleet.distributed_learning(pages);
        self.translate_new_batches();
    }

    /// Centralized learning on a single member (used by experiments that need the exact
    /// single-machine model).
    pub fn centralized_learning(&mut self, pages: &[Vec<Word>]) {
        let (model, _) = cv_core::learn_model(&self.image, pages, self.monitors);
        self.fleet.set_model(model);
    }

    /// A member loads a page. Failures are reported to the central manager, which
    /// drives the response and distributes patches to every member.
    pub fn browse(&mut self, node: NodeId, page: &[Word]) -> CommunityOutcome {
        assert!(node < self.fleet.node_count(), "unknown node {node}");
        let mut epoch = self.fleet.run_epoch(&[Presentation::new(node, page)]);
        let outcome = epoch.outcomes.remove(0);
        self.translate_new_batches();
        CommunityOutcome {
            node: outcome.node,
            status: outcome.status,
            rendered: outcome.rendered,
            blocked: outcome.blocked,
        }
    }

    /// Expand fleet log batches recorded since the last call into the legacy
    /// per-event message stream.
    fn translate_new_batches(&mut self) {
        let batches = self.fleet.log().messages();
        for batch in &batches[self.translated..] {
            match batch {
                FleetMessage::InvariantUploads { uploads, .. } => {
                    for (node, invariants) in uploads {
                        self.log.push(Message::InvariantUpload {
                            node: *node,
                            invariants: *invariants,
                        });
                    }
                }
                FleetMessage::Failures { failures, .. } => {
                    for (node, location) in failures {
                        self.log.push(Message::FailureNotification {
                            node: *node,
                            location: *location,
                        });
                    }
                }
                FleetMessage::Observations {
                    location, reports, ..
                } => {
                    for (node, observations) in reports {
                        self.log.push(Message::ObservationReport {
                            node: *node,
                            location: *location,
                            observations: *observations,
                        });
                    }
                }
                FleetMessage::Bootstrap {
                    members,
                    snapshot_bytes,
                    ..
                } => {
                    for _ in 0..*members {
                        self.log.push(Message::StateSync {
                            bytes: *snapshot_bytes,
                        });
                    }
                }
                FleetMessage::DeltaSync {
                    members,
                    delta_bytes,
                    ..
                } => {
                    for _ in 0..*members {
                        self.log.push(Message::StateSync {
                            bytes: *delta_bytes,
                        });
                    }
                }
                FleetMessage::PatchPushes { .. } => {
                    for (location, kind) in batch.push_summaries() {
                        self.log.push(match kind {
                            PatchPushKind::InstallChecks { invariants } => {
                                Message::ChecksDistributed {
                                    location,
                                    invariants,
                                }
                            }
                            PatchPushKind::RemoveChecks => Message::ChecksRemoved { location },
                            PatchPushKind::InstallRepair { description } => {
                                Message::RepairDistributed {
                                    location,
                                    description,
                                }
                            }
                            PatchPushKind::RemoveRepair => Message::RepairRemoved { location },
                        });
                    }
                }
            }
        }
        self.translated = batches.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cv_apps::{learning_suite, red_team_exploits, Browser};

    fn protected_community(nodes: usize) -> (Community, Browser) {
        let browser = Browser::build();
        let mut community =
            Community::new(browser.image.clone(), ClearViewConfig::default(), nodes);
        community.distributed_learning(&learning_suite());
        (community, browser)
    }

    #[test]
    fn distributed_learning_merges_member_uploads() {
        let (community, _) = protected_community(3);
        assert!(community.model().invariants.len() > 50);
        let uploads = community
            .log()
            .iter()
            .filter(|m| matches!(m, Message::InvariantUpload { .. }))
            .count();
        assert_eq!(uploads, 3, "every member uploads its local invariants");
    }

    #[test]
    fn community_gains_immunity_without_exposure() {
        let (mut community, browser) = protected_community(3);
        let exploit = red_team_exploits(&browser)
            .into_iter()
            .find(|e| e.bugzilla == 290162)
            .unwrap();
        // Only node 0 is ever attacked.
        let mut survived_at = None;
        for i in 1..=10 {
            let out = community.browse(0, exploit.page());
            if matches!(out.status, RunStatus::Completed) {
                survived_at = Some(i);
                break;
            }
        }
        assert!(
            survived_at.is_some(),
            "the attacked member eventually survives"
        );
        // Node 2 has never seen the attack, but the distributed patch protects it.
        let out = community.browse(2, exploit.page());
        assert!(
            matches!(out.status, RunStatus::Completed),
            "an unexposed member survives its first exposure: {:?}",
            out.status
        );
        // The patch-distribution messages are in the log.
        assert!(community
            .log()
            .iter()
            .any(|m| matches!(m, Message::RepairDistributed { .. })));
    }

    #[test]
    fn simultaneous_exploits_are_handled_independently() {
        let (mut community, browser) = protected_community(2);
        let exploits = red_team_exploits(&browser);
        let a = exploits.iter().find(|e| e.bugzilla == 290162).unwrap();
        let b = exploits.iter().find(|e| e.bugzilla == 296134).unwrap();
        // Interleave two different exploits on two different members.
        for _ in 0..8 {
            community.browse(0, a.page());
            community.browse(1, b.page());
        }
        let a_loc = browser.sym("vuln_290162_call");
        let b_loc = browser.sym("vuln_296134_ret");
        assert!(
            community.is_protected_against(a_loc),
            "{:?}",
            community.phase_of(a_loc)
        );
        assert!(
            community.is_protected_against(b_loc),
            "{:?}",
            community.phase_of(b_loc)
        );
        // Both members now survive both attacks.
        for node in 0..2 {
            assert!(matches!(
                community.browse(node, a.page()).status,
                RunStatus::Completed
            ));
            assert!(matches!(
                community.browse(node, b.page()).status,
                RunStatus::Completed
            ));
        }
        assert_eq!(community.reports().len(), 2);
    }

    #[test]
    fn benign_browsing_never_triggers_a_response() {
        let (mut community, _) = protected_community(2);
        for (i, page) in learning_suite().iter().enumerate() {
            let out = community.browse(i % 2, page);
            assert!(matches!(out.status, RunStatus::Completed));
        }
        assert!(community.reports().is_empty());
        assert!(!community
            .log()
            .iter()
            .any(|m| matches!(m, Message::FailureNotification { .. })));
    }

    #[test]
    fn facade_exposes_fleet_metrics_and_batched_log() {
        let (mut community, browser) = protected_community(2);
        let exploit = red_team_exploits(&browser)
            .into_iter()
            .find(|e| e.bugzilla == 290162)
            .unwrap();
        for _ in 0..6 {
            community.browse(0, exploit.page());
        }
        let fleet = community.fleet();
        assert!(fleet.metrics().pages_processed >= 6);
        assert!(fleet.metrics().patch_pushes > 0);
        // The batched log carries the same traffic the legacy log expands to.
        let batched_events: usize = fleet.log().messages().iter().map(|m| m.event_count()).sum();
        assert_eq!(batched_events, community.log().len());
    }
}
