//! # ClearView reproduction facade
//!
//! This crate re-exports the public API of the ClearView (SOSP 2009) reproduction so
//! that downstream users can depend on a single crate:
//!
//! * [`isa`] — the simulated x86-like instruction set and assembler.
//! * [`runtime`] — the managed program execution environment and monitors.
//! * [`inference`] — the Daikon-like invariant learning engine.
//! * [`patch`] — invariant-check and repair patches.
//! * [`core`] — the ClearView orchestration pipeline.
//! * [`store`] — the snapshot + delta-sync persistence plane (durability & churn).
//! * [`fleet`] — the application community: one central manager, members executed
//!   in parallel (from a handful to 1,000+ members).
//! * [`obs`] — the structured tracing + telemetry plane (spans, counters, traces).
//! * [`apps`] — the synthetic vulnerable browser and its workloads.
//!
//! See `examples/quickstart.rs` for an end-to-end walk through the Figure 1 pipeline,
//! `examples/application_community.rs` for a small community, and
//! `examples/fleet_demo.rs` for community-scale immunity.

pub use cv_apps as apps;
pub use cv_core as core;
pub use cv_fleet as fleet;
pub use cv_inference as inference;
pub use cv_isa as isa;
pub use cv_obs as obs;
pub use cv_patch as patch;
pub use cv_runtime as runtime;
pub use cv_store as store;
