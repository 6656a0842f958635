//! Failure monitors: Memory Firewall, Heap Guard, and the Shadow Stack.
//!
//! A ClearView monitor detects a *failure* and reports the *failure location* — the
//! program counter of the instruction at which the failure was detected (Section 2.3).
//! Monitors have no false positives by construction: they only fire on behaviour that is
//! definitely outside the application's specification (an illegal control transfer or an
//! out-of-bounds heap write).

use cv_isa::Addr;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which monitors (and the Shadow Stack) are enabled for an execution.
///
/// The paper's Red Team configuration runs with all three enabled; Table 2 measures the
/// overhead of each combination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MonitorConfig {
    /// Memory Firewall: validate every control-flow transfer (program shepherding).
    pub memory_firewall: bool,
    /// Heap Guard: canary checks on heap writes.
    pub heap_guard: bool,
    /// Shadow Stack: maintain an auxiliary call stack for failure reports.
    pub shadow_stack: bool,
}

impl MonitorConfig {
    /// Everything off — "bare" execution used as the Table 2 baseline.
    pub fn bare() -> Self {
        MonitorConfig {
            memory_firewall: false,
            heap_guard: false,
            shadow_stack: false,
        }
    }

    /// Memory Firewall only (the always-on production monitor).
    pub fn memory_firewall_only() -> Self {
        MonitorConfig {
            memory_firewall: true,
            heap_guard: false,
            shadow_stack: false,
        }
    }

    /// Memory Firewall plus the Shadow Stack.
    pub fn firewall_and_shadow_stack() -> Self {
        MonitorConfig {
            memory_firewall: true,
            heap_guard: false,
            shadow_stack: true,
        }
    }

    /// Memory Firewall plus Heap Guard.
    pub fn firewall_and_heap_guard() -> Self {
        MonitorConfig {
            memory_firewall: true,
            heap_guard: true,
            shadow_stack: false,
        }
    }

    /// The full Red Team configuration: Memory Firewall + Heap Guard + Shadow Stack.
    pub fn full() -> Self {
        MonitorConfig {
            memory_firewall: true,
            heap_guard: true,
            shadow_stack: true,
        }
    }

    /// A short label for reports ("MF", "MF+HG+SS", ...).
    pub fn label(&self) -> String {
        if !self.memory_firewall && !self.heap_guard && !self.shadow_stack {
            return "bare".to_string();
        }
        let mut parts = Vec::new();
        if self.memory_firewall {
            parts.push("MF");
        }
        if self.heap_guard {
            parts.push("HG");
        }
        if self.shadow_stack {
            parts.push("SS");
        }
        parts.join("+")
    }
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig::full()
    }
}

/// The class of failure a monitor detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FailureKind {
    /// Memory Firewall: a control transfer targeted an address outside the loaded code.
    IllegalControlTransfer {
        /// The illegal target.
        target: Addr,
    },
    /// Heap Guard: a write was about to clobber an allocation-boundary canary.
    OutOfBoundsWrite {
        /// The heap address of the attempted write.
        addr: Addr,
    },
}

impl FailureKind {
    /// A short name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            FailureKind::IllegalControlTransfer { .. } => "illegal-control-transfer",
            FailureKind::OutOfBoundsWrite { .. } => "out-of-bounds-write",
        }
    }
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureKind::IllegalControlTransfer { target } => {
                write!(f, "illegal control transfer to 0x{target:x}")
            }
            FailureKind::OutOfBoundsWrite { addr } => {
                write!(f, "out-of-bounds write at 0x{addr:x}")
            }
        }
    }
}

/// One frame of the Shadow Stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct StackFrame {
    /// The entry address of the called procedure.
    pub proc_entry: Addr,
    /// The address of the call instruction.
    pub call_site: Addr,
    /// The return address pushed by the call.
    pub return_addr: Addr,
}

/// A failure detected by a monitor, as reported to ClearView.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Failure {
    /// What was detected.
    pub kind: FailureKind,
    /// The program counter at which the monitor detected the failure.
    pub location: Addr,
    /// The Shadow Stack at the time of the failure, innermost frame last. Empty when the
    /// Shadow Stack is disabled.
    pub call_stack: Vec<StackFrame>,
}

impl Failure {
    /// The key ClearView uses to distinguish failures from one another: the failure
    /// location (Section 3.2, "all ClearView patches are applied in response to a
    /// specific failure as identified by the failure location").
    pub fn failure_id(&self) -> Addr {
        self.location
    }

    /// The procedure entries on the call stack, innermost first, starting with the
    /// procedure containing the failure location (when known).
    pub fn procedures_innermost_first(&self) -> Vec<Addr> {
        self.call_stack.iter().rev().map(|f| f.proc_entry).collect()
    }
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} detected at 0x{:x}", self.kind, self.location)
    }
}

/// The auxiliary shadow call stack (Section 2.3).
///
/// Maintained by call/return instrumentation rather than by walking the native stack,
/// because the native stack may be corrupted precisely when a failure occurs.
#[derive(Debug, Clone, Default)]
pub struct ShadowStack {
    frames: Vec<StackFrame>,
    /// Number of push/pop operations performed (cost model).
    pub ops: u64,
}

impl ShadowStack {
    /// An empty shadow stack.
    pub fn new() -> Self {
        Self::default()
    }

    /// Back to an empty stack with no operations counted, keeping the frames' capacity.
    pub(crate) fn reset(&mut self) {
        self.frames.clear();
        self.ops = 0;
    }

    /// Record a call.
    pub fn push(&mut self, frame: StackFrame) {
        self.frames.push(frame);
        self.ops += 1;
    }

    /// Record a return. Returns the popped frame, if any. A return that does not match
    /// the innermost frame (possible after stack corruption) still pops one frame —
    /// best effort, as in the real system.
    pub fn pop(&mut self) -> Option<StackFrame> {
        self.ops += 1;
        self.frames.pop()
    }

    /// The current frames, outermost first.
    pub fn frames(&self) -> &[StackFrame] {
        &self.frames
    }

    /// Current call depth.
    pub fn depth(&self) -> usize {
        self.frames.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_labels() {
        assert_eq!(MonitorConfig::bare().label(), "bare");
        assert_eq!(MonitorConfig::memory_firewall_only().label(), "MF");
        assert_eq!(MonitorConfig::firewall_and_shadow_stack().label(), "MF+SS");
        assert_eq!(MonitorConfig::firewall_and_heap_guard().label(), "MF+HG");
        assert_eq!(MonitorConfig::full().label(), "MF+HG+SS");
        assert_eq!(MonitorConfig::default(), MonitorConfig::full());
    }

    #[test]
    fn failure_display_and_id() {
        let f = Failure {
            kind: FailureKind::IllegalControlTransfer { target: 0x20010 },
            location: 0x1040,
            call_stack: vec![],
        };
        assert_eq!(f.failure_id(), 0x1040);
        assert!(f.to_string().contains("0x1040"));
        assert!(f.to_string().contains("0x20010"));
    }

    #[test]
    fn shadow_stack_push_pop() {
        let mut ss = ShadowStack::new();
        let f1 = StackFrame {
            proc_entry: 0x1000,
            call_site: 0x1100,
            return_addr: 0x1102,
        };
        let f2 = StackFrame {
            proc_entry: 0x1200,
            call_site: 0x1010,
            return_addr: 0x1012,
        };
        ss.push(f1);
        ss.push(f2);
        assert_eq!(ss.depth(), 2);
        assert_eq!(ss.pop(), Some(f2));
        assert_eq!(ss.pop(), Some(f1));
        assert_eq!(ss.pop(), None);
        assert_eq!(ss.ops, 5);
    }

    #[test]
    fn procedures_innermost_first() {
        let f = Failure {
            kind: FailureKind::OutOfBoundsWrite { addr: 0x20000 },
            location: 0x1040,
            call_stack: vec![
                StackFrame {
                    proc_entry: 0x1000,
                    call_site: 0x1004,
                    return_addr: 0x1006,
                },
                StackFrame {
                    proc_entry: 0x1100,
                    call_site: 0x1104,
                    return_addr: 0x1106,
                },
            ],
        };
        assert_eq!(f.procedures_innermost_first(), vec![0x1100, 0x1000]);
    }
}
