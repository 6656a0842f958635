//! The block loop held to the per-instruction loop.
//!
//! [`ManagedExecutionEnvironment::run`] executes straight through cached code, with
//! its own `match` over the common instruction forms; `run_with_tracer` executes one
//! instruction at a time through [`Executor::execute_instruction`] and
//! [`Machine::exec_data_inst`]. The proptest here runs random programs on two
//! environments built alike — one through `run`, one through `run_with_tracer` with a
//! tracer that traces nothing — and requires every [`RunResult`] to be equal: status
//! (failure location and call stack included), rendered and debug output,
//! observations, and every [`ExecutionStats`] field — and the guests to be left with
//! the same registers, flags, `eip`, heap blocks and unread input.
//!
//! The programs ([`random_program`]) use every form the block loop matches and the
//! forms it hands on, memory operands and register values (the stack pointer too) at
//! the segment edges, and indirect transfers through data words, some of which hold
//! an injected payload. Patches at instructions, inside instructions and on the
//! payload answer `Continue`, `SkipInstruction` or `ReturnFromProcedure`, and check
//! that `machine.eip` is their address. Budgets run from one instruction up to past
//! the end of a short page, so they run out mid-block; monitors go from bare
//! (injected code runs) to full; both environment shapes are used; and between runs
//! the caches are flushed and blocks ejected by patches coming and going.
//!
//! Hand-made mutants of the block loop, each applied alone and each failing
//! `block_loop_matches_the_per_instruction_loop`:
//!
//! * the budget checked once per block, on entry to `run_cached`, not per instruction;
//! * `run_cached` fetching with a test that the slot was ever filled instead of its
//!   stamp, so a flushed or ejected slot runs with no rebuild counted;
//! * `run_cached` not storing `machine.eip` before the hook walk;
//! * `run_cached` handing the hook walk `eip` as the address to resume at, so that
//!   `SkipInstruction` resumes at `eip`;
//! * the `mov [m], r` arm writing any mapped word, without `write_mem`'s code-segment
//!   test (and Heap Guard);
//! * the `jcc` arm jumping without `validate_transfer`, so that no `firewall_checks`
//!   are counted;
//! * the `push r` arm moving the stack pointer and writing through `write_mem`,
//!   without `Machine::push`'s stack-segment test;
//! * the miss path not storing `machine.eip` before the step;
//! * the `cmp` arm comparing its operands the other way round; `add` as `sub`, `and`
//!   as `or`, `shl` as `shr`; `mov r, src` writing a bit off; `pop r` not writing.

use super::*;
use crate::hooks::ObservationKind;
use crate::testgen::{edges, random_program};
use crate::trace::RecordingTracer;
use cv_isa::{decode_all, MemoryLayout};
use proptest::prelude::*;

/// A patch for the differential: it checks that the machine's `eip` is its address,
/// observes two bits of a hash of the registers and flags and whether the same hash
/// was stored under its address earlier in the run, stores it, may overwrite a
/// register, and answers with its action.
struct Probe {
    action: HookAction,
    poke: Option<(Reg, Word)>,
}

impl Hook for Probe {
    fn on_execute(&mut self, ctx: &mut HookContext<'_>) -> HookAction {
        assert_eq!(
            ctx.machine.eip, ctx.addr,
            "a hook runs with eip at its address"
        );
        let (machine, f) = (&ctx.machine, ctx.machine.flags);
        let flags = [f.zero, f.sign, f.carry, f.overflow]
            .into_iter()
            .fold(0, |h, bit| h << 1 | u32::from(bit));
        let state = Reg::ALL
            .iter()
            .fold(flags, |h, &r| h.rotate_left(5) ^ machine.reg(r));
        let key = u64::from(ctx.addr);
        let seen = ctx.aux(key);
        for bit in [
            state % 2 == 1,
            state.count_ones() % 2 == 1,
            seen == Some(state),
        ] {
            ctx.observe(match bit {
                true => ObservationKind::Violated,
                false => ObservationKind::Satisfied,
            });
        }
        ctx.store_aux(key, Some(state));
        if let Some((reg, value)) = self.poke {
            ctx.machine.set_reg(reg, value);
        }
        self.action
    }
}

fn probe(pick: u16) -> Box<dyn Hook> {
    let action = match pick % 4 {
        0 | 1 => HookAction::Continue,
        2 => HookAction::SkipInstruction,
        _ => HookAction::ReturnFromProcedure {
            sp_adjust: (pick / 4 % 3) as i32,
        },
    };
    let poke = (pick / 16)
        .is_multiple_of(3)
        .then(|| (Reg::ALL[(pick / 48 % 8) as usize], pick as Word));
    Box::new(Probe { action, poke })
}

/// Where patches go: every instruction of the linear decode, one word inside each
/// longer instruction (where a jump may land), and the injected payload.
fn hook_sites(image: &BinaryImage) -> Vec<Addr> {
    let insts = decode_all(&image.code, image.layout.code_base).expect("the image decodes");
    let mut sites: Vec<Addr> = insts.iter().map(|i| i.addr).collect();
    sites.extend(insts.iter().filter(|i| i.len > 1).map(|i| i.addr + 1));
    sites.push(image.layout.data_base);
    sites
}

/// What a run leaves in the guest it hands back: registers, flags, `eip`, live heap
/// blocks and unread input. (Its pages have gone back to the spare list.)
fn guest_state(env: &ManagedExecutionEnvironment) -> impl PartialEq + std::fmt::Debug {
    let machine = &env
        .guest
        .as_ref()
        .expect("a run hands its guest back")
        .machine;
    (
        Reg::ALL.map(|r| machine.reg(r)),
        machine.flags,
        machine.eip,
        machine.live_allocations(),
        machine.input_remaining(),
    )
}

const MONITORS: [fn() -> MonitorConfig; 5] = [
    MonitorConfig::bare,
    MonitorConfig::memory_firewall_only,
    MonitorConfig::firewall_and_shadow_stack,
    MonitorConfig::firewall_and_heap_guard,
    MonitorConfig::full,
];

/// Input words: small numbers (loop counts, sizes, indices), the segment edges, and
/// anything.
fn word() -> impl Strategy<Value = Word> {
    prop_oneof![
        0u32..32,
        prop::sample::select(edges(MemoryLayout::default()).to_vec()),
        any::<u32>(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `run` and `run_with_tracer` agree on every field of every run, whatever the
    /// program, patches, budget, monitors and environment shape, and through flushes
    /// and patches applied and removed between runs.
    #[test]
    fn block_loop_matches_the_per_instruction_loop(
        shape in prop::collection::vec((any::<u8>(), any::<u8>()), 4..60),
        inputs in prop::collection::vec(prop::collection::vec(word(), 0..8), 1..4),
        steps in prop::collection::vec((any::<u8>(), any::<u16>()), 1..32),
        budget in prop_oneof![1u64..=48, 1u64..=2_000],
        monitors in prop_oneof![Just(0usize), Just(4usize), 0usize..5],
        shared in any::<bool>(),
    ) {
        let image = random_program(&shape);
        let sites = hook_sites(&image);
        let config = EnvConfig {
            monitors: MONITORS[monitors](),
            max_instructions: budget,
        };
        let program = SharedProgram::new(image.clone());
        let environment = || match shared {
            true => ManagedExecutionEnvironment::with_shared(&program, config),
            false => ManagedExecutionEnvironment::new(image.clone(), config),
        };
        let (mut block, mut reference) = (environment(), environment());
        let mut installed: Vec<HookId> = Vec::new();
        for &(op, pick) in &steps {
            let pick = pick as usize;
            match op % 10 {
                0 => {
                    block.flush_cache();
                    reference.flush_cache();
                }
                1..=4 => {
                    let addr = sites[pick % sites.len()];
                    let id = block.apply_hook(addr, probe(pick as u16));
                    prop_assert_eq!(id, reference.apply_hook(addr, probe(pick as u16)));
                    installed.push(id);
                }
                5 if !installed.is_empty() => {
                    let id = installed.swap_remove(pick % installed.len());
                    prop_assert!(block.remove_hook(id).is_ok());
                    prop_assert!(reference.remove_hook(id).is_ok());
                }
                _ => {
                    let input = &inputs[pick % inputs.len()];
                    let mut nothing = RecordingTracer::with_filter([]);
                    let want = reference.run_with_tracer(input, &mut nothing);
                    prop_assert_eq!(block.run(input), want);
                    prop_assert_eq!(guest_state(&block), guest_state(&reference));
                }
            }
        }
        prop_assert_eq!(block.cumulative_stats(), reference.cumulative_stats());
    }
}
