//! Candidate repair patches: enforce a correlated invariant (Section 2.5).
//!
//! A repair patch first checks whether its invariant is violated; if so, it enforces the
//! invariant by changing the values of registers or memory locations, by skipping a
//! call, or by returning immediately from the enclosing procedure. The three invariant
//! kinds and their repairs follow Sections 2.5.1–2.5.3:
//!
//! * **one-of** `v ∈ {c1..cn}` — one repair per observed value (`v = ci`); if `v` is the
//!   target of a call, a repair that skips the call; and a repair that returns from the
//!   enclosing procedure (stack pointer adjusted via a learned sp-offset invariant).
//! * **lower-bound** `c ≤ v` — `if !(c <= v) then v = c`.
//! * **less-than** `v1 ≤ v2` — `if !(v1 <= v2)` then set the variable read at the check
//!   instruction so that the relation holds (the paper's `v1 = v2` form).

use crate::check::{observe_invariant, value_of, with_aux_store};
use cv_inference::{Invariant, Variable};
use cv_isa::{Addr, Word};
use cv_runtime::{Hook, HookAction, HookContext};
use serde::{Deserialize, Serialize};
use std::fmt;

/// How a repair patch enforces its invariant when the invariant is violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RepairStrategy {
    /// Overwrite the variable with a previously observed value (one-of repair).
    SetValue {
        /// The value to install.
        value: Word,
    },
    /// Skip the (call) instruction entirely (one-of repair for function pointers).
    SkipCall,
    /// Return immediately from the enclosing procedure, adjusting the stack pointer by
    /// the learned offset first (one-of repair).
    ReturnFromProcedure {
        /// Words to add to the stack pointer before popping the return address.
        sp_adjust: i32,
    },
    /// Set the variable to the invariant's lower bound (lower-bound repair).
    ClampToLowerBound,
    /// Set the variable read at the check instruction equal to the other variable so
    /// that `v1 ≤ v2` holds (less-than repair).
    EnforceLessThan,
}

impl RepairStrategy {
    /// True if the strategy changes the flow of control rather than just state — used by
    /// the evaluation tie-breaking rule that prefers state-only repairs (Section 2.6).
    pub fn changes_control_flow(&self) -> bool {
        matches!(
            self,
            RepairStrategy::SkipCall | RepairStrategy::ReturnFromProcedure { .. }
        )
    }

    /// A short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            RepairStrategy::SetValue { .. } => "set-value",
            RepairStrategy::SkipCall => "skip-call",
            RepairStrategy::ReturnFromProcedure { .. } => "return-from-procedure",
            RepairStrategy::ClampToLowerBound => "clamp-lower-bound",
            RepairStrategy::EnforceLessThan => "enforce-less-than",
        }
    }
}

impl fmt::Display for RepairStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepairStrategy::SetValue { value } => write!(f, "set-value(0x{value:x})"),
            RepairStrategy::ReturnFromProcedure { sp_adjust } => {
                write!(f, "return-from-procedure(sp+={sp_adjust})")
            }
            other => f.write_str(other.name()),
        }
    }
}

/// A candidate repair: an invariant plus the strategy used to enforce it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RepairPatch {
    /// The correlated invariant being enforced.
    pub invariant: Invariant,
    /// The enforcement strategy.
    pub strategy: RepairStrategy,
}

impl RepairPatch {
    /// The address at which the repair patch runs.
    pub fn check_addr(&self) -> Addr {
        self.invariant.check_addr()
    }

    /// True if applying the repair can change control flow.
    pub fn changes_control_flow(&self) -> bool {
        self.strategy.changes_control_flow()
    }

    /// Generate every candidate repair for `invariant` (Section 2.5).
    ///
    /// * `is_call_target` — true when the invariant's variable is the target operand of
    ///   an indirect call at the check address, enabling the skip-call repair.
    /// * `sp_adjust` — the learned stack-pointer offset at the check address, enabling
    ///   the return-from-procedure repair.
    pub fn candidates(
        invariant: &Invariant,
        is_call_target: bool,
        sp_adjust: Option<i32>,
    ) -> Vec<RepairPatch> {
        let mut out = Vec::new();
        match invariant {
            Invariant::OneOf { var, values } => {
                if var.is_enforceable() {
                    for value in values {
                        out.push(RepairPatch {
                            invariant: invariant.clone(),
                            strategy: RepairStrategy::SetValue { value: *value },
                        });
                    }
                }
                if is_call_target {
                    out.push(RepairPatch {
                        invariant: invariant.clone(),
                        strategy: RepairStrategy::SkipCall,
                    });
                }
                if let Some(adjust) = sp_adjust {
                    out.push(RepairPatch {
                        invariant: invariant.clone(),
                        strategy: RepairStrategy::ReturnFromProcedure { sp_adjust: adjust },
                    });
                }
            }
            Invariant::LowerBound { var, .. } => {
                if var.is_enforceable() {
                    out.push(RepairPatch {
                        invariant: invariant.clone(),
                        strategy: RepairStrategy::ClampToLowerBound,
                    });
                }
            }
            Invariant::LessThan { a, b } => {
                let check = invariant.check_addr();
                let at_check_enforceable = (a.addr == check && a.is_enforceable())
                    || (b.addr == check && b.is_enforceable());
                if at_check_enforceable {
                    out.push(RepairPatch {
                        invariant: invariant.clone(),
                        strategy: RepairStrategy::EnforceLessThan,
                    });
                }
            }
            Invariant::StackPointerOffset { .. } => {}
        }
        out
    }

    /// A human-readable description (part of the information ClearView gives
    /// maintainers about each patch).
    pub fn description(&self) -> String {
        format!("enforce [{}] via {}", self.invariant, self.strategy)
    }

    /// Compile the repair into hooks to apply to the managed environment: the
    /// enforcing hook at the check instruction, after the auxiliary store of a
    /// two-variable invariant (see [`CheckPatch::build_hooks`](crate::CheckPatch)).
    pub fn build_hooks(&self) -> Vec<(Addr, Box<dyn Hook>)> {
        with_aux_store(&self.invariant, |earlier| {
            Box::new(RepairHook {
                patch: self.clone(),
                earlier,
            })
        })
    }
}

impl fmt::Display for RepairPatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.description())
    }
}

/// The hook that implements a repair patch at run time. Every enforcement is one
/// `Violated` observation of this hook.
struct RepairHook {
    patch: RepairPatch,
    /// For two-variable invariants: the variable read at the earlier instruction.
    earlier: Option<Variable>,
}

impl Hook for RepairHook {
    fn on_execute(&mut self, ctx: &mut HookContext<'_>) -> HookAction {
        if observe_invariant(ctx, &self.patch.invariant, self.earlier.as_ref()) {
            return HookAction::Continue;
        }
        match self.patch.strategy {
            RepairStrategy::SetValue { value } => {
                if let Some(var) = self.patch.invariant.variables().first() {
                    if let Some(op) = var.operand {
                        let _ = ctx.machine.write_operand(&op, value);
                    }
                }
                HookAction::Continue
            }
            RepairStrategy::SkipCall => HookAction::SkipInstruction,
            RepairStrategy::ReturnFromProcedure { sp_adjust } => {
                HookAction::ReturnFromProcedure { sp_adjust }
            }
            RepairStrategy::ClampToLowerBound => {
                if let Invariant::LowerBound { var, min } = &self.patch.invariant {
                    if let Some(op) = var.operand {
                        let _ = ctx.machine.write_operand(&op, *min as Word);
                    }
                }
                HookAction::Continue
            }
            RepairStrategy::EnforceLessThan => {
                if let Invariant::LessThan { a, b } = self.patch.invariant.clone() {
                    let check = self.patch.invariant.check_addr();
                    // Set the variable read at the check instruction so that a <= b.
                    let (to_write, other) = if b.addr == check && b.is_enforceable() {
                        (b, a)
                    } else {
                        (a, b)
                    };
                    if let (Some(op), Some(value)) = (
                        to_write.operand,
                        value_of(ctx, self.earlier.as_ref(), &other),
                    ) {
                        let _ = ctx.machine.write_operand(&op, value);
                    }
                }
                HookAction::Continue
            }
        }
    }

    fn describe(&self) -> String {
        self.patch.description()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cv_isa::{Operand, Reg};

    fn var(addr: Addr, reg: Reg) -> Variable {
        Variable::read(addr, 0, Operand::Reg(reg))
    }

    #[test]
    fn one_of_candidates_cover_all_three_repair_forms() {
        let inv = Invariant::OneOf {
            var: var(0x41000, Reg::Ebx),
            values: [0x41100u32, 0x41200].into_iter().collect(),
        };
        let repairs = RepairPatch::candidates(&inv, true, Some(0));
        let names: Vec<&str> = repairs.iter().map(|r| r.strategy.name()).collect();
        assert_eq!(
            names,
            vec![
                "set-value",
                "set-value",
                "skip-call",
                "return-from-procedure"
            ]
        );
        assert!(repairs[2].changes_control_flow());
        assert!(!repairs[0].changes_control_flow());
    }

    #[test]
    fn one_of_without_call_or_sp_only_sets_values() {
        let inv = Invariant::OneOf {
            var: var(0x41000, Reg::Ebx),
            values: [7u32].into_iter().collect(),
        };
        let repairs = RepairPatch::candidates(&inv, false, None);
        assert_eq!(repairs.len(), 1);
        assert_eq!(repairs[0].strategy, RepairStrategy::SetValue { value: 7 });
    }

    #[test]
    fn lower_bound_candidate_is_a_clamp() {
        let inv = Invariant::LowerBound {
            var: var(0x41000, Reg::Ecx),
            min: 1,
        };
        let repairs = RepairPatch::candidates(&inv, false, None);
        assert_eq!(repairs.len(), 1);
        assert_eq!(repairs[0].strategy, RepairStrategy::ClampToLowerBound);
        assert_eq!(repairs[0].check_addr(), 0x41000);
    }

    #[test]
    fn non_enforceable_invariants_generate_no_repairs() {
        let inv = Invariant::LowerBound {
            var: Variable::read(0x41000, 0, Operand::Imm(4)),
            min: 1,
        };
        assert!(RepairPatch::candidates(&inv, false, None).is_empty());
        let sp = Invariant::StackPointerOffset {
            proc_entry: 1,
            at: 2,
            offset: 0,
        };
        assert!(RepairPatch::candidates(&sp, false, None).is_empty());
    }

    #[test]
    fn less_than_candidate_requires_enforceable_var_at_check() {
        let inv = Invariant::LessThan {
            a: var(0x41000, Reg::Ecx),
            b: var(0x41010, Reg::Edx),
        };
        let repairs = RepairPatch::candidates(&inv, false, None);
        assert_eq!(repairs.len(), 1);
        assert_eq!(repairs[0].strategy, RepairStrategy::EnforceLessThan);
        assert_eq!(repairs[0].check_addr(), 0x41010);
    }

    #[test]
    fn descriptions_identify_invariant_and_strategy() {
        let inv = Invariant::LowerBound {
            var: var(0x41043, Reg::Ecx),
            min: 1,
        };
        let r = &RepairPatch::candidates(&inv, false, None)[0];
        let d = r.description();
        assert!(d.contains("0x41043"));
        assert!(d.contains("clamp-lower-bound"));
    }
}
