//! Invariant-checking patches (Section 2.4.2).
//!
//! When a failure is reported, ClearView deploys patches that *check* each candidate
//! correlated invariant and emit an observation (satisfied / violated) every time the
//! check executes. Single-variable invariants are checked at the variable's instruction;
//! two-variable invariants are checked at the later of the two instructions, with an
//! auxiliary patch at the earlier instruction storing the first variable's value for
//! retrieval by the check.
//!
//! # Where the stored value lives
//!
//! In the run, and nowhere else. The auxiliary patch files the value in the run's
//! auxiliary store ([`HookContext::store_aux`]) and the check — or the repair, which
//! is assembled by the same [`with_aux_store`] — reads it back
//! ([`HookContext::aux`]); both are plain data holding no state of their own. The
//! slot is keyed by the earlier **variable** (instruction address and operand slot),
//! not by the patch: two patches over one variable store and read one slot, and the
//! value they share is by definition the same — what that operand held the last time
//! that instruction executed. A run that reaches the check without passing the earlier
//! instruction finds the slot empty and, as for any unavailable value, reports the
//! invariant satisfied.

use cv_inference::{Invariant, VarSlot, Variable};
use cv_isa::{Addr, Word};
use cv_runtime::{Hook, HookAction, HookContext, ObservationKind};
use serde::{Deserialize, Serialize};

/// Read the current value of a variable from the machine, if it has a readable operand.
fn read_variable(ctx: &HookContext<'_>, var: &Variable) -> Option<Word> {
    let op = var.operand?;
    ctx.machine.read_operand(&op).ok()
}

/// The slot of the run's auxiliary store that holds `var`: its instruction address
/// above its operand slot.
fn aux_key(var: &Variable) -> u64 {
    let slot = match var.slot {
        VarSlot::Read(n) => u64::from(n),
        VarSlot::ComputedAddr(n) => 0x100 | u64::from(n),
        VarSlot::StackPointer => 0x200,
    };
    u64::from(var.addr) << 32 | slot
}

/// The value of `var` as a check or repair sees it: what the auxiliary patch stored
/// earlier in this run if `var` is the `earlier` variable of its pair, the machine's
/// current value otherwise.
pub(crate) fn value_of(
    ctx: &HookContext<'_>,
    earlier: Option<&Variable>,
    var: &Variable,
) -> Option<Word> {
    if earlier == Some(var) {
        ctx.aux(aux_key(var))
    } else {
        read_variable(ctx, var)
    }
}

/// Evaluate `invariant` at its check instruction and record the observation.
pub(crate) fn observe_invariant(
    ctx: &mut HookContext<'_>,
    invariant: &Invariant,
    earlier: Option<&Variable>,
) -> bool {
    let holds = invariant.holds(&|var| value_of(ctx, earlier, var));
    ctx.observe(if holds {
        ObservationKind::Satisfied
    } else {
        ObservationKind::Violated
    });
    holds
}

/// Compile a patch over `invariant` into its hooks: `at_check` makes the hook for the
/// check instruction and is told which variable, if any, it must take from the
/// auxiliary store. A two-variable invariant over two instructions gets the auxiliary
/// patch at the earlier one first — two hooks; every other invariant is one.
pub(crate) fn with_aux_store(
    invariant: &Invariant,
    at_check: impl FnOnce(Option<Variable>) -> Box<dyn Hook>,
) -> Vec<(Addr, Box<dyn Hook>)> {
    let earlier = match invariant {
        Invariant::LessThan { a, b } if a.addr != b.addr => {
            Some(if a.addr < b.addr { *a } else { *b })
        }
        _ => None,
    };
    let mut hooks = Vec::with_capacity(2);
    if let Some(var) = earlier {
        hooks.push((var.addr, Box::new(AuxStoreHook { var }) as Box<dyn Hook>));
    }
    hooks.push((invariant.check_addr(), at_check(earlier)));
    hooks
}

/// The auxiliary patch of Section 2.4.2: at the earlier instruction of a two-variable
/// invariant, store the variable's value for later retrieval by the check patch. A
/// value that cannot be read empties the slot.
struct AuxStoreHook {
    var: Variable,
}

impl Hook for AuxStoreHook {
    fn on_execute(&mut self, ctx: &mut HookContext<'_>) -> HookAction {
        let value = read_variable(ctx, &self.var);
        ctx.store_aux(aux_key(&self.var), value);
        HookAction::Continue
    }

    fn describe(&self) -> String {
        format!("aux-store {}", self.var)
    }
}

/// The invariant-check patch: evaluates the invariant and emits an observation.
struct CheckHook {
    invariant: Invariant,
    /// For two-variable invariants: the variable read at the earlier instruction.
    earlier: Option<Variable>,
}

impl Hook for CheckHook {
    fn on_execute(&mut self, ctx: &mut HookContext<'_>) -> HookAction {
        observe_invariant(ctx, &self.invariant, self.earlier.as_ref());
        HookAction::Continue
    }

    fn describe(&self) -> String {
        format!("check {}", self.invariant)
    }
}

/// An invariant-check patch, ready to be compiled into hooks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckPatch {
    /// The invariant being checked.
    pub invariant: Invariant,
}

impl CheckPatch {
    /// Create a check patch for `invariant`.
    pub fn new(invariant: Invariant) -> Self {
        CheckPatch { invariant }
    }

    /// The address at which the check observes the invariant.
    pub fn check_addr(&self) -> Addr {
        self.invariant.check_addr()
    }

    /// Compile the patch into hooks: `(address, hook)` pairs to apply to the managed
    /// environment. Two-variable invariants compile to an auxiliary store at the earlier
    /// instruction plus the check at the later one.
    pub fn build_hooks(&self) -> Vec<(Addr, Box<dyn Hook>)> {
        with_aux_store(&self.invariant, |earlier| {
            Box::new(CheckHook {
                invariant: self.invariant.clone(),
                earlier,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cv_isa::{Cond, MemRef, Operand, Port, ProgramBuilder, Reg};
    use cv_runtime::{EnvConfig, ManagedExecutionEnvironment, ObservationKind};
    use ObservationKind::{Satisfied, Violated};

    /// in ecx; mov ebx, ecx; add ebx 1; copy-less program used to exercise checks.
    fn program() -> (cv_isa::BinaryImage, std::collections::BTreeMap<String, u32>) {
        let mut b = ProgramBuilder::new();
        let main = b.function("main");
        b.input(Reg::Ecx, Port::Input);
        let mov_site = b.mov(Reg::Ebx, Reg::Ecx);
        b.note_symbol("mov_site", mov_site);
        let add_site = b.add(Reg::Ebx, 5u32);
        b.note_symbol("add_site", add_site);
        let out_site = b.output(Reg::Ebx, Port::Render);
        b.note_symbol("out_site", out_site);
        b.halt();
        b.set_entry(main);
        b.build_with_symbols().unwrap()
    }

    #[test]
    fn single_variable_check_emits_observations() {
        let (image, syms) = program();
        let mut env = ManagedExecutionEnvironment::new(image, EnvConfig::default());
        let inv = Invariant::LowerBound {
            var: Variable::read(syms["mov_site"], 0, Operand::Reg(Reg::Ecx)),
            min: 1,
        };
        let patch = CheckPatch::new(inv);
        assert_eq!(patch.check_addr(), syms["mov_site"]);
        for (addr, hook) in patch.build_hooks() {
            env.apply_hook(addr, hook);
        }
        let ok = env.run(&[5]);
        assert_eq!(ok.observations.len(), 1);
        assert_eq!(ok.observations[0].kind, ObservationKind::Satisfied);
        let bad = env.run(&[0]);
        assert_eq!(bad.observations.len(), 1);
        assert_eq!(bad.observations[0].kind, ObservationKind::Violated);
    }

    #[test]
    fn two_variable_check_uses_stored_earlier_value() {
        let (image, syms) = program();
        let mut env = ManagedExecutionEnvironment::new(image, EnvConfig::default());
        // Invariant: ecx (at the mov) <= ebx (at the out). Since ebx = ecx + 5 this
        // always holds — but only if the check retrieves ecx's value from the aux store
        // rather than re-reading it at the out instruction (where it is unchanged here,
        // so to make the test meaningful the attacker-style run clobbers ecx).
        let a = Variable::read(syms["mov_site"], 0, Operand::Reg(Reg::Ecx));
        let b = Variable::read(syms["out_site"], 0, Operand::Reg(Reg::Ebx));
        let patch = CheckPatch::new(Invariant::LessThan { a, b });
        let hooks = patch.build_hooks();
        assert_eq!(hooks.len(), 2, "aux store + check");
        for (addr, hook) in hooks {
            env.apply_hook(addr, hook);
        }
        let r = env.run(&[7]);
        assert!(r.is_completed());
        assert_eq!(r.observations.len(), 1);
        assert_eq!(r.observations[0].kind, ObservationKind::Satisfied);
        assert_eq!(r.observations[0].addr, syms["out_site"]);
    }

    #[test]
    fn check_of_unreadable_variable_reports_satisfied() {
        // A monitor-style check must never produce a false violation; if the value is
        // unavailable the check treats the invariant as satisfied.
        let (image, syms) = program();
        let mut env = ManagedExecutionEnvironment::new(image, EnvConfig::default());
        let inv = Invariant::LowerBound {
            var: Variable::stack_pointer(syms["mov_site"]),
            min: 0,
        };
        for (addr, hook) in CheckPatch::new(inv).build_hooks() {
            env.apply_hook(addr, hook);
        }
        let r = env.run(&[1]);
        assert_eq!(r.observations[0].kind, ObservationKind::Satisfied);
    }

    // Hand-made mutants of where an auxiliary value lives, each of which fails the test
    // named:
    //  * the run's auxiliary `Vec` kept in the environment and not cleared per run
    //    (`tests/guest_memory.rs`, `an_auxiliary_value_never_decides_the_next_page`);
    //  * `aux_key` ignoring the operand slot
    //    (`two_variables_of_one_instruction_are_two_slots`);
    //  * `store_aux(_, None)` leaving the old value
    //    (`an_unreadable_value_empties_the_slot`);
    //  * `value_of` reading the machine for the earlier variable too
    //    (`the_check_sees_the_latest_store_not_the_machine`);
    //  * the fleet's interning ignoring unit order
    //    (`cv-fleet`, `engine::tests::installation_order_distinguishes_configurations`).

    /// A guest whose earlier instruction runs once per loop trip and whose registers
    /// are gone by the time the check runs:
    ///
    /// ```text
    ///         in ecx            ; trips
    /// top:    in eax ; in ebx
    /// pair:   cmp eax, ebx      ; the earlier instruction: reads eax, ebx
    ///         mov eax, 0 ; mov ebx, 0
    ///         sub ecx, 1 ; cmp ecx, 0 ; jgt top
    ///         in edx
    /// out:    out edx           ; the check instruction
    /// ```
    ///
    /// Returns the image, `pair`, `out` and the address of a data word holding 100.
    fn looping_program() -> (cv_isa::BinaryImage, Addr, Addr, Addr) {
        let mut b = ProgramBuilder::new();
        let hundred = b.data_word(100);
        let main = b.function("main");
        b.input(Reg::Ecx, Port::Input);
        let top = b.new_label("top");
        b.bind(top);
        b.input(Reg::Eax, Port::Input);
        b.input(Reg::Ebx, Port::Input);
        let pair = b.cmp(Reg::Eax, Reg::Ebx);
        b.mov(Reg::Eax, 0u32);
        b.mov(Reg::Ebx, 0u32);
        b.sub(Reg::Ecx, 1u32);
        b.cmp(Reg::Ecx, 0u32);
        b.jcc(Cond::Gt, top);
        b.input(Reg::Edx, Port::Input);
        let out = b.output(Reg::Edx, Port::Render);
        b.halt();
        b.set_entry(main);
        (b.build().unwrap(), pair, out, hundred)
    }

    /// Install `earlier <= edx at out` for each of `earlier`, run `input`, and return
    /// what each check observed, in installation order.
    fn observed(earlier: &[Variable], input: &[Word]) -> Vec<Vec<ObservationKind>> {
        let (image, _, out, _) = looping_program();
        let mut env = ManagedExecutionEnvironment::new(image, EnvConfig::default());
        let checks: Vec<_> = earlier
            .iter()
            .map(|a| {
                let b = Variable::read(out, 0, Operand::Reg(Reg::Edx));
                let patch = CheckPatch::new(Invariant::LessThan { a: *a, b });
                let handle = crate::install_hooks(&mut env, patch.build_hooks());
                *handle.hook_ids().last().unwrap()
            })
            .collect();
        let result = env.run(input);
        assert!(result.is_completed());
        let of = |hook| result.observations.iter().filter(move |o| o.hook == hook);
        checks
            .iter()
            .map(|hook| of(*hook).map(|o| o.kind).collect())
            .collect()
    }

    #[test]
    fn the_check_sees_the_latest_store_not_the_machine() {
        let (_, pair, _, _) = looping_program();
        let eax = Variable::read(pair, 0, Operand::Reg(Reg::Eax));
        // One trip stores 100; the machine's eax is 0 by the time 50 is checked.
        assert_eq!(observed(&[eax], &[1, 100, 0, 50]), [[Violated]]);
        // Two trips store 100, then 5: the check compares the 5.
        assert_eq!(observed(&[eax], &[2, 100, 0, 5, 0, 50]), [[Satisfied]]);
        assert_eq!(observed(&[eax], &[2, 5, 0, 100, 0, 50]), [[Violated]]);
    }

    #[test]
    fn two_variables_of_one_instruction_are_two_slots() {
        let (_, pair, _, _) = looping_program();
        let eax = Variable::read(pair, 0, Operand::Reg(Reg::Eax));
        let ebx = Variable::read(pair, 1, Operand::Reg(Reg::Ebx));
        assert_eq!(
            observed(&[eax, ebx], &[1, 10, 100, 50]),
            [[Satisfied], [Violated]]
        );
        assert_eq!(
            observed(&[eax, ebx], &[1, 100, 10, 50]),
            [[Violated], [Satisfied]]
        );
        // Two patches over one variable share its slot, and agree.
        assert_eq!(
            observed(&[eax, eax], &[1, 100, 0, 50]),
            [[Violated], [Violated]]
        );
    }

    #[test]
    fn an_unreadable_value_empties_the_slot() {
        let (_, pair, _, hundred) = looping_program();
        let through_eax = Variable::read(pair, 0, Operand::Mem(MemRef::base(Reg::Eax)));
        let nowhere = Word::MAX - 16;
        assert_eq!(observed(&[through_eax], &[1, hundred, 0, 50]), [[Violated]]);
        // The second trip cannot read its operand: the check finds the value
        // unavailable, not the first trip's 100.
        assert_eq!(
            observed(&[through_eax], &[2, hundred, 0, nowhere, 0, 50]),
            [[Satisfied]]
        );
    }
}
