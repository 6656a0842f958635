//! Execution statistics and the simulated cost model.
//!
//! The paper reports wall-clock overheads measured on 2008-era hardware (Table 2,
//! Section 4.4). Our substrate is an interpreter, so absolute times are meaningless;
//! instead the runtime counts the events that *cause* the paper's overheads
//! (instructions, monitor checks, trace records, cache builds) and a [`CostModel`]
//! converts them into simulated time units. The `cv-bench` binaries report these
//! simulated overheads (for the Table 2 / learning-overhead shapes); the repository
//! benchmark (`benchmark/`) measures the reproduction itself in wall-clock time, and
//! holds these counts exact from one commit to the next.

use serde::{Deserialize, Serialize};

/// Raw event counts for one or more executions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecutionStats {
    /// Guest instructions executed.
    pub instructions: u64,
    /// Per-instruction trace events delivered to a tracer (learning overhead).
    pub trace_events: u64,
    /// Hook (patch) invocations.
    pub hook_invocations: u64,
    /// Memory Firewall control-transfer validations.
    pub firewall_checks: u64,
    /// Heap Guard canary checks on heap writes.
    pub heap_guard_checks: u64,
    /// Shadow Stack push/pop operations.
    pub shadow_stack_ops: u64,
    /// Basic blocks decoded into the code cache.
    pub blocks_built: u64,
    /// Basic blocks ejected from the code cache (patch application/removal).
    pub blocks_ejected: u64,
    /// Runs performed.
    pub runs: u64,
}

impl ExecutionStats {
    /// Accumulate another stats record into this one.
    pub fn merge(&mut self, other: &ExecutionStats) {
        self.instructions += other.instructions;
        self.trace_events += other.trace_events;
        self.hook_invocations += other.hook_invocations;
        self.firewall_checks += other.firewall_checks;
        self.heap_guard_checks += other.heap_guard_checks;
        self.shadow_stack_ops += other.shadow_stack_ops;
        self.blocks_built += other.blocks_built;
        self.blocks_ejected += other.blocks_ejected;
        self.runs += other.runs;
    }
}

/// Weights that convert raw event counts into simulated time units.
///
/// The defaults are calibrated so that the synthetic browser workload reproduces the
/// *shape* of the paper's overhead measurements: Memory Firewall ≈ 1.5× bare, adding the
/// Shadow Stack ≈ 2×, adding Heap Guard ≈ 2.5×, everything ≈ 3×, and full tracing two to
/// three hundred times slower than untraced execution (Sections 4.4.1–4.4.2).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Cost of executing one instruction natively.
    pub instruction: f64,
    /// Cost of recording one trace event (the Daikon x86 front end dominates learning).
    pub trace_event: f64,
    /// Cost of one hook invocation.
    pub hook_invocation: f64,
    /// Cost of one Memory Firewall validation.
    pub firewall_check: f64,
    /// Cost of one Heap Guard canary check.
    pub heap_guard_check: f64,
    /// Cost of one Shadow Stack operation.
    pub shadow_stack_op: f64,
    /// Cost of decoding one basic block into the cache.
    pub block_build: f64,
    /// Cost of ejecting one basic block.
    pub block_eject: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            instruction: 1.0,
            trace_event: 1800.0,
            hook_invocation: 6.0,
            firewall_check: 5.1,
            heap_guard_check: 13.8,
            shadow_stack_op: 7.6,
            block_build: 40.0,
            block_eject: 10.0,
        }
    }
}

impl CostModel {
    /// Simulated time units for `stats` under this model.
    pub fn cost(&self, stats: &ExecutionStats) -> f64 {
        stats.instructions as f64 * self.instruction
            + stats.trace_events as f64 * self.trace_event
            + stats.hook_invocations as f64 * self.hook_invocation
            + stats.firewall_checks as f64 * self.firewall_check
            + stats.heap_guard_checks as f64 * self.heap_guard_check
            + stats.shadow_stack_ops as f64 * self.shadow_stack_op
            + stats.blocks_built as f64 * self.block_build
            + stats.blocks_ejected as f64 * self.block_eject
    }

    /// Overhead of `stats` relative to a baseline run (`cost(stats) / cost(baseline)`).
    pub fn overhead(&self, stats: &ExecutionStats, baseline: &ExecutionStats) -> f64 {
        let base = self.cost(baseline);
        if base == 0.0 {
            return 1.0;
        }
        self.cost(stats) / base
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates_every_field() {
        let mut a = ExecutionStats {
            instructions: 1,
            trace_events: 2,
            hook_invocations: 3,
            firewall_checks: 4,
            heap_guard_checks: 5,
            shadow_stack_ops: 6,
            blocks_built: 7,
            blocks_ejected: 8,
            runs: 1,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.instructions, 2);
        assert_eq!(a.trace_events, 4);
        assert_eq!(a.hook_invocations, 6);
        assert_eq!(a.firewall_checks, 8);
        assert_eq!(a.heap_guard_checks, 10);
        assert_eq!(a.shadow_stack_ops, 12);
        assert_eq!(a.blocks_built, 14);
        assert_eq!(a.blocks_ejected, 16);
        assert_eq!(a.runs, 2);
    }

    #[test]
    fn cost_is_monotone_in_events() {
        let model = CostModel::default();
        let base = ExecutionStats {
            instructions: 1000,
            runs: 1,
            ..Default::default()
        };
        let mut with_checks = base;
        with_checks.firewall_checks = 100;
        assert!(model.cost(&with_checks) > model.cost(&base));
        assert!(model.overhead(&with_checks, &base) > 1.0);
    }

    #[test]
    fn tracing_dominates_cost() {
        let model = CostModel::default();
        let mut traced = ExecutionStats {
            instructions: 1000,
            ..Default::default()
        };
        traced.trace_events = 1000;
        let bare = ExecutionStats {
            instructions: 1000,
            ..Default::default()
        };
        let ratio = model.overhead(&traced, &bare);
        assert!(
            ratio > 100.0,
            "tracing should be orders of magnitude slower, got {ratio}"
        );
    }

    #[test]
    fn zero_baseline_overhead_is_one() {
        let model = CostModel::default();
        let s = ExecutionStats::default();
        assert_eq!(model.overhead(&s, &s), 1.0);
    }
}
