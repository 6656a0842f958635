//! # cv-core — the ClearView orchestrator
//!
//! This crate implements the paper's primary contribution: the pipeline of Figure 1
//! that turns monitor-detected failures into evaluated repair patches.
//!
//! * [`ClearViewConfig`] — the policy knobs of the Red Team configuration.
//! * [`candidate_invariants`] / [`classify`] / [`Correlation`] — correlated invariant
//!   identification (Section 2.4).
//! * [`generate_repairs`] / [`RepairCandidate`] — candidate repair generation and the
//!   static ordering rules (Section 2.5, Section 2.6 tie-breaking).
//! * [`RepairEvaluator`] — the `(s − f) + b` repair scoring (Section 2.6).
//! * [`FailureResponder`] — the per-failure state machine: checking → repairing →
//!   protected, with give-up paths.
//! * [`manager`] — the manager plane: the responder set ([`ResponderShard`], one
//!   responder per failure location), the batch it consumes ([`ShardBucket`]), and
//!   the canonically ordered patch operations it emits ([`PatchPlan`]).
//! * [`ProtectedApplication`] — a single application instance under ClearView
//!   protection: present pages, watch it learn from failure, and read back the
//!   Table 3-style [`AttackTimeline`] and maintainer [`RepairReport`]s.
//! * [`learn_model`] — drive the learning phase over a suite of pages.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod correlate;
mod evaluate;
pub mod manager;
mod pipeline;
mod repairgen;
mod responder;
mod tree;

pub use config::ClearViewConfig;
pub use correlate::{candidate_invariants, classify, CandidateSet, Correlation};
pub use evaluate::{RepairEvaluator, RepairScore};
pub use manager::{
    FailureEvent, NetPatchState, PatchPlan, PlanOp, ResponderShard, RoutedDigest, ShardBucket,
    ShardOutcome, SourceId,
};
pub use pipeline::{
    checks_for, learn_model, AttackTimeline, PresentationOutcome, ProtectedApplication,
    SimTimeModel,
};
pub use repairgen::{generate_repairs, RepairCandidate};
pub use responder::{DigestStatus, Directive, FailureResponder, Phase, RepairReport, RunDigest};
pub use tree::{ManagerTree, TierMerge, TierPush, TierRowSpec};
