//! # cv-runtime — the managed program execution environment and monitors
//!
//! ClearView runs applications under the Determina Managed Program Execution
//! Environment (built on DynamoRIO), which executes binaries out of a code cache and
//! lets plugins instrument blocks and apply or remove patches from running applications
//! (Section 2.1 of the paper). Its monitors — Memory Firewall (program shepherding) and
//! Heap Guard — detect failures and report failure locations; an optional Shadow Stack
//! records the caller chain.
//!
//! This crate is that substrate for the simulated ISA in [`cv_isa`]:
//!
//! * [`Machine`] — registers, flags, memory, the canary-bracketing heap allocator, and
//!   I/O ports.
//! * [`CodeCache`] / [`CodeTable`] / [`BasicBlock`] — one dense table of decoded
//!   instructions, filled a block at a time on first execution; blocks are ejected when
//!   patches are applied or removed. [`SharedProgram`] shares the same table, filled
//!   up front, across a fleet.
//! * [`Hook`] / [`HookRegistry`] — the plugin/patch interface: run before an
//!   instruction, read and write guest state, emit invariant-check observations, skip
//!   the instruction, or return from the enclosing procedure. Which addresses carry
//!   hooks is a table over the code segment, so an unpatched instruction pays one load.
//! * [`MemoryFirewall`-style validation, `HeapGuard` checks, and the `ShadowStack`]
//!   — see [`MonitorConfig`], [`Failure`], [`FailureKind`].
//! * [`ManagedExecutionEnvironment`] — ties it all together and reports a [`RunResult`]
//!   per execution, including [`ExecutionStats`] for the simulated cost model.
//!
//! [`MemoryFirewall`-style validation, `HeapGuard` checks, and the `ShadowStack`]: MonitorConfig

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod env;
mod error;
mod heap;
mod hooks;
mod machine;
mod memory;
mod monitors;
mod shared;
mod stats;
#[cfg(test)]
mod testgen;
mod trace;

pub use cache::{BasicBlock, CodeCache, CodeTable};
pub use env::{EnvConfig, ManagedExecutionEnvironment, RunResult, RunStatus};
pub use error::{CrashInfo, CrashKind, RuntimeError};
pub use heap::{Allocation, HeapAllocator, CANARY};
pub use hooks::{
    Hook, HookAction, HookContext, HookId, HookRegistry, Observation, ObservationKind,
};
pub use machine::{CopyOutcome, Machine, MemFault};
pub use memory::{Memory, PAGE_WORDS};
pub use monitors::{Failure, FailureKind, MonitorConfig, ShadowStack, StackFrame};
pub use shared::SharedProgram;
pub use stats::{CostModel, ExecutionStats};
pub use trace::{
    AddrComputation, BufferedEvent, ExecEvent, OperandValue, RecordingTracer, RunBuffer, Tracer,
};
