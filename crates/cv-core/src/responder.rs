//! The per-failure response state machine.
//!
//! Every ClearView patch is applied in response to a specific failure, identified by its
//! failure location (Section 3.2). A [`FailureResponder`] owns the full response to one
//! failure location: select candidate correlated invariants, request invariant-checking
//! patches, classify correlations from the observations of subsequent failing runs,
//! generate candidate repairs, and drive the repair evaluation loop — requesting patch
//! installs and removals from whoever is executing the application (the single-machine
//! pipeline in this crate, or the fleet's central manager in `cv-fleet`).

use crate::config::ClearViewConfig;
use crate::correlate::{candidate_invariants, classify, CandidateSet, Correlation};
use crate::evaluate::RepairEvaluator;
use crate::repairgen::generate_repairs;
use cv_inference::{Invariant, LearnedModel};
use cv_isa::Addr;
use cv_patch::{CheckPatch, RepairPatch};
use cv_runtime::{Failure, HookId, Observation, ObservationKind, RunStatus};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// The phase a failure response is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Phase {
    /// Invariant-checking patches are (or should be) installed; waiting to observe the
    /// failure again.
    Checking,
    /// Candidate repairs are being evaluated; one repair is (or should be) installed.
    Repairing,
    /// A repair is installed and has survived evaluation; the failure is considered
    /// corrected (evaluation continues in the background).
    Protected,
    /// ClearView could not find a repair (no candidate invariants, no correlated
    /// invariants, or every candidate repair failed). The monitor still blocks attacks.
    Unprotected,
}

/// A request the responder makes of whoever runs the application.
///
/// Directives are `Clone` + `PartialEq` + serde so that patch plans built from them
/// can cross the fleet wire protocol and be replayed from a recorded batch log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Directive {
    /// Install these invariant-checking patches.
    InstallChecks(Vec<CheckPatch>),
    /// Remove all invariant-checking patches for this failure.
    RemoveChecks,
    /// Install this repair patch.
    InstallRepair(RepairPatch),
    /// Remove the currently installed repair patch for this failure.
    RemoveRepair,
}

/// How a run relevant to this failure ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DigestStatus {
    /// The application completed normally.
    Completed,
    /// A monitor detected a failure at this location.
    FailureAt(Addr),
    /// The application crashed.
    Crashed,
}

impl From<&RunStatus> for DigestStatus {
    fn from(status: &RunStatus) -> Self {
        match status {
            RunStatus::Completed => DigestStatus::Completed,
            RunStatus::Failure(f) => DigestStatus::FailureAt(f.location),
            RunStatus::Crash(_) => DigestStatus::Crashed,
        }
    }
}

/// A per-run digest delivered to the responder: the run status plus, for each checked
/// invariant, the chronological sequence of satisfied (`true`) / violated (`false`)
/// observations produced during the run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunDigest {
    /// How the run ended.
    pub status: Option<DigestStatus>,
    /// Observation sequences keyed by invariant.
    pub observations: HashMap<Invariant, Vec<bool>>,
}

impl RunDigest {
    /// A digest with a status and no observations.
    pub fn with_status(status: DigestStatus) -> Self {
        RunDigest {
            status: Some(status),
            observations: HashMap::new(),
        }
    }

    /// The digest of one run for one failure location: `status`, plus for each of
    /// `checks` — the invariants checked for that location, each with the id of its
    /// check hook on the machine that ran — the sequence that hook observed. A check
    /// that never executed has no entry.
    ///
    /// Inlined into its three callers, as the private copies it replaces were:
    /// `present` builds one digest per slot per page, and out of line that call reads
    /// as 4% of `host_browse`'s `pages_per_s` (EXPERIMENTS.md, PR 23).
    #[inline]
    pub fn of_run<'a>(
        status: DigestStatus,
        observations: &[Observation],
        checks: impl IntoIterator<Item = (&'a Invariant, HookId)>,
    ) -> Self {
        let mut digest = RunDigest::with_status(status);
        for (inv, check_hook) in checks {
            let seq: Vec<bool> = observations
                .iter()
                .filter(|o| o.hook == check_hook)
                .map(|o| o.kind == ObservationKind::Satisfied)
                .collect();
            if !seq.is_empty() {
                digest.observations.insert(inv.clone(), seq);
            }
        }
        digest
    }
}

/// The report ClearView can hand to maintainers (Section 1, "Candidate Repair
/// Evaluation"): the failure, the correlated invariants, the repairs tried, and how
/// effective each was.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RepairReport {
    /// The failure location this response addresses.
    pub failure_location: Addr,
    /// The current phase.
    pub phase: Phase,
    /// Number of candidate correlated invariants considered.
    pub candidate_invariants: usize,
    /// Correlated invariants and their classifications (present once checking is done).
    pub correlated: Vec<(String, Correlation)>,
    /// For each candidate repair: its description, successes, and failures.
    pub repairs: Vec<(String, u64, u64)>,
    /// The currently installed repair, if any.
    pub active_repair: Option<String>,
    /// Total failing presentations observed for this failure.
    pub failures_observed: u32,
}

impl fmt::Display for RepairReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "failure at 0x{:x} — phase {:?}",
            self.failure_location, self.phase
        )?;
        writeln!(f, "  candidate invariants: {}", self.candidate_invariants)?;
        for (inv, cls) in &self.correlated {
            writeln!(f, "  correlated [{cls:?}]: {inv}")?;
        }
        for (desc, s, fl) in &self.repairs {
            writeln!(f, "  repair ({s} ok / {fl} bad): {desc}")?;
        }
        if let Some(active) = &self.active_repair {
            writeln!(f, "  active repair: {active}")?;
        }
        Ok(())
    }
}

/// The state machine responding to one failure location.
pub struct FailureResponder {
    /// The failure location this responder owns.
    pub failure_location: Addr,
    config: ClearViewConfig,
    candidates: CandidateSet,
    phase: Phase,
    failing_runs_with_checks: u32,
    observations_per_failure: HashMap<Invariant, Vec<Vec<bool>>>,
    classifications: HashMap<Invariant, Correlation>,
    evaluator: RepairEvaluator,
    active_repair: Option<usize>,
    failures_observed: u32,
    /// Number of repair-evaluation runs that ended badly (Table 3's unsuccessful runs).
    pub unsuccessful_repair_runs: u32,
}

impl FailureResponder {
    /// Start responding to `failure`. Returns the responder plus the directives to apply
    /// immediately (installing the invariant-checking patches, if any candidates exist).
    pub fn new(
        failure: &Failure,
        model: &LearnedModel,
        config: ClearViewConfig,
    ) -> (Self, Vec<Directive>) {
        let candidates = candidate_invariants(failure, model, &config);
        // Repair-timeline stage: candidate checks selected (or none found). The
        // instants are dropped unless tracing is on; `location` keys them into
        // the per-failure timelines the summary report assembles.
        cv_obs::recorder().instant(
            "timeline.checks_selected",
            "timeline",
            &[
                ("location", u64::from(failure.location)),
                ("candidates", candidates.len() as u64),
            ],
        );
        let (phase, directives) = if candidates.is_empty() {
            cv_obs::recorder().instant(
                "timeline.gave_up",
                "timeline",
                &[("location", u64::from(failure.location))],
            );
            (Phase::Unprotected, Vec::new())
        } else {
            let checks = candidates
                .invariants
                .iter()
                .cloned()
                .map(CheckPatch::new)
                .collect::<Vec<_>>();
            (Phase::Checking, vec![Directive::InstallChecks(checks)])
        };
        (
            FailureResponder {
                failure_location: failure.location,
                config,
                candidates,
                phase,
                failing_runs_with_checks: 0,
                observations_per_failure: HashMap::new(),
                classifications: HashMap::new(),
                evaluator: RepairEvaluator::default(),
                active_repair: None,
                failures_observed: 1,
                unsuccessful_repair_runs: 0,
            },
            directives,
        )
    }

    /// Reconstruct a responder for a failure whose repair already survived
    /// community-wide evaluation — the warm-start path of the snapshot plane.
    ///
    /// The responder starts in [`Phase::Protected`] with `repair` installed and
    /// credited one evaluation success (the success that validated it before the
    /// checkpoint). Observation history and checking state are deliberately not
    /// reconstructed: they belong to in-flight responses, which restart from the
    /// next failure report. Evaluation continues normally — if the restored repair
    /// later fails, the responder degrades exactly like a live one (with no
    /// alternative candidates it gives up and emits `RemoveRepair`).
    pub fn restored(location: Addr, repair: RepairPatch, config: ClearViewConfig) -> Self {
        let mut evaluator = RepairEvaluator::new(
            vec![crate::repairgen::RepairCandidate {
                correlation: Correlation::Highly,
                stack_rank: 0,
                check_addr: repair.check_addr(),
                repair,
            }],
            config.untried_bonus,
        );
        evaluator.record_success(0);
        FailureResponder {
            failure_location: location,
            config,
            candidates: CandidateSet::default(),
            phase: Phase::Protected,
            failing_runs_with_checks: 0,
            observations_per_failure: HashMap::new(),
            classifications: HashMap::new(),
            evaluator,
            active_repair: Some(0),
            failures_observed: 0,
            unsuccessful_repair_runs: 0,
        }
    }

    /// The candidate correlated invariants selected for this failure.
    pub fn candidates(&self) -> &CandidateSet {
        &self.candidates
    }

    /// The current phase.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// True once a repair has survived evaluation.
    pub fn is_protected(&self) -> bool {
        self.phase == Phase::Protected
    }

    /// True if ClearView has given up finding a repair for this failure.
    pub fn gave_up(&self) -> bool {
        self.phase == Phase::Unprotected
    }

    /// The repair currently expected to be installed, if any.
    pub fn current_repair(&self) -> Option<&RepairPatch> {
        self.active_repair
            .and_then(|idx| self.evaluator.scores().get(idx))
            .map(|s| &s.candidate.repair)
    }

    /// Correlation classifications (available once checking completes).
    pub fn classifications(&self) -> &HashMap<Invariant, Correlation> {
        &self.classifications
    }

    /// Process one run of the (patched) application and return the directives to apply
    /// before the next run.
    pub fn on_run(&mut self, digest: &RunDigest, model: &LearnedModel) -> Vec<Directive> {
        let status = match digest.status {
            Some(s) => s,
            None => return Vec::new(),
        };
        match self.phase {
            Phase::Checking => self.on_run_checking(status, digest, model),
            Phase::Repairing | Phase::Protected => self.on_run_repairing(status),
            Phase::Unprotected => Vec::new(),
        }
    }

    fn on_run_checking(
        &mut self,
        status: DigestStatus,
        digest: &RunDigest,
        model: &LearnedModel,
    ) -> Vec<Directive> {
        match status {
            DigestStatus::FailureAt(loc) if loc == self.failure_location => {
                self.failures_observed += 1;
                self.failing_runs_with_checks += 1;
                for inv in &self.candidates.invariants {
                    let obs = digest.observations.get(inv).cloned().unwrap_or_default();
                    self.observations_per_failure
                        .entry(inv.clone())
                        .or_default()
                        .push(obs);
                }
                if self.failing_runs_with_checks >= self.config.check_runs_required {
                    return self.finish_checking(model);
                }
                Vec::new()
            }
            _ => Vec::new(),
        }
    }

    fn finish_checking(&mut self, model: &LearnedModel) -> Vec<Directive> {
        for inv in &self.candidates.invariants {
            let runs = self
                .observations_per_failure
                .get(inv)
                .cloned()
                .unwrap_or_default();
            self.classifications.insert(inv.clone(), classify(&runs));
        }
        let repairs =
            generate_repairs(&self.candidates, &self.classifications, model, &self.config);
        // Repair-timeline stage: candidate repairs generated from the correlated
        // invariants.
        cv_obs::recorder().instant(
            "timeline.candidates_generated",
            "timeline",
            &[
                ("location", u64::from(self.failure_location)),
                ("repairs", repairs.len() as u64),
            ],
        );
        let mut directives = vec![Directive::RemoveChecks];
        if repairs.is_empty() {
            cv_obs::recorder().instant(
                "timeline.gave_up",
                "timeline",
                &[("location", u64::from(self.failure_location))],
            );
            self.phase = Phase::Unprotected;
            return directives;
        }
        self.evaluator = RepairEvaluator::new(repairs, self.config.untried_bonus);
        let (idx, cand) = self.evaluator.best().expect("non-empty evaluator");
        self.active_repair = Some(idx);
        self.phase = Phase::Repairing;
        directives.push(Directive::InstallRepair(cand.repair.clone()));
        directives
    }

    fn on_run_repairing(&mut self, status: DigestStatus) -> Vec<Directive> {
        let idx = match self.active_repair {
            Some(idx) => idx,
            None => return Vec::new(),
        };
        match status {
            DigestStatus::Completed => {
                self.evaluator.record_success(idx);
                if self.phase != Phase::Protected {
                    // Repair-timeline stage: first surviving evaluation verdict.
                    cv_obs::recorder().instant(
                        "timeline.verdict_success",
                        "timeline",
                        &[("location", u64::from(self.failure_location))],
                    );
                }
                self.phase = Phase::Protected;
                Vec::new()
            }
            DigestStatus::FailureAt(loc) if loc != self.failure_location => {
                // A different failure: the responsibility of another responder. The
                // original failure did not recur, so the installed repair stands (this
                // is how the three chained defects of exploit 311710 are each repaired
                // in turn).
                Vec::new()
            }
            DigestStatus::FailureAt(_) | DigestStatus::Crashed => {
                if matches!(status, DigestStatus::FailureAt(loc) if loc == self.failure_location) {
                    self.failures_observed += 1;
                }
                self.evaluator.record_failure(idx);
                self.unsuccessful_repair_runs += 1;
                // Repair-timeline stage: an evaluation run rejected the installed
                // candidate.
                cv_obs::recorder().instant(
                    "timeline.verdict_failure",
                    "timeline",
                    &[("location", u64::from(self.failure_location))],
                );
                if self.evaluator.exhausted() {
                    cv_obs::recorder().instant(
                        "timeline.gave_up",
                        "timeline",
                        &[("location", u64::from(self.failure_location))],
                    );
                    self.phase = Phase::Unprotected;
                    self.active_repair = None;
                    return vec![Directive::RemoveRepair];
                }
                let (next, cand) = self.evaluator.best().expect("non-empty evaluator");
                if next == idx {
                    // The current repair is still the most promising despite the
                    // failure; keep it installed.
                    self.phase = Phase::Repairing;
                    return Vec::new();
                }
                self.active_repair = Some(next);
                self.phase = Phase::Repairing;
                vec![
                    Directive::RemoveRepair,
                    Directive::InstallRepair(cand.repair.clone()),
                ]
            }
        }
    }

    /// The maintainer-facing report.
    pub fn report(&self) -> RepairReport {
        // The classification map is hash-keyed; report correlated invariants in
        // candidate-selection order so reports are deterministic.
        let correlated = self
            .candidates
            .invariants
            .iter()
            .filter_map(|inv| {
                self.classifications
                    .get(inv)
                    .filter(|c| **c > Correlation::Not)
                    .map(|c| (inv.to_string(), *c))
            })
            .collect();
        RepairReport {
            failure_location: self.failure_location,
            phase: self.phase,
            candidate_invariants: self.candidates.len(),
            correlated,
            repairs: self
                .evaluator
                .scores()
                .iter()
                .map(|s| (s.candidate.repair.description(), s.successes, s.failures))
                .collect(),
            active_repair: self.current_repair().map(|r| r.description()),
            failures_observed: self.failures_observed,
        }
    }
}
