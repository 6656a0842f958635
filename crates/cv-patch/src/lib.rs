//! # cv-patch — invariant-check and repair patches
//!
//! ClearView responds to a failure in two patching waves (Sections 2.4–2.5 of the
//! paper): first it deploys *invariant-checking* patches that observe whether candidate
//! correlated invariants are satisfied or violated; then, once correlated invariants are
//! identified, it deploys *candidate repair* patches that enforce them — changing
//! register or memory values, skipping calls, or returning early from the enclosing
//! procedure.
//!
//! This crate compiles both kinds of patches into [`cv_runtime::Hook`]s:
//!
//! * [`CheckPatch`] — check an invariant at its check address (with an auxiliary store
//!   hook for two-variable invariants) and emit satisfied/violated observations.
//! * [`RepairPatch`] / [`RepairStrategy`] — the enforcement patches of Section 2.5, with
//!   [`RepairPatch::candidates`] generating every candidate repair for an invariant.
//! * [`install_hooks`] / [`uninstall`] / [`PatchHandle`] — apply and remove patches from
//!   a running managed environment (code-cache block ejection underneath).
//! * [`PatchCostModel`] / [`InvariantCounts`] — the simulated build/install costs used
//!   by the Table 3 reproduction.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod check;
mod cost;
mod handle;
mod repair;

pub use check::CheckPatch;
pub use cost::{InvariantCounts, PatchCostModel};
pub use handle::{install_hooks, uninstall, PatchHandle};
pub use repair::{RepairPatch, RepairStrategy};
