//! The managed program execution environment.
//!
//! This is the reproduction's equivalent of the Determina Managed Program Execution
//! Environment built on DynamoRIO (Section 2.1): it executes a stripped binary out of a
//! code cache of dynamically decoded basic blocks, lets instrumentation hooks (patches)
//! run before instructions and mutate state or redirect control, validates every control
//! transfer through the Memory Firewall, applies Heap Guard to heap writes, maintains
//! the Shadow Stack, and reports failures with their failure locations.
//!
//! Like the real environment — one long-lived managed process — it builds nothing per
//! run that it already owns. The first run constructs a guest (a [`Machine`] and a
//! [`ShadowStack`]); the environment keeps it, and every later run resets it, which
//! costs the pages the last run dirtied ([`Machine::reset`]). The guest is `take()`n
//! out of the environment for the duration of a run and put back at its end, after the
//! run's pages have gone back to the memory's spare list. A hook that panics therefore
//! unwinds with the guest — the environment is left holding `None`, and its next run
//! constructs afresh rather than resetting a machine abandoned mid-instruction.
//!
//! # Two loops, one meaning
//!
//! A run executes on one of two loops, and they must not be told apart by anything a
//! run returns:
//!
//! * **The block loop** ([`ManagedExecutionEnvironment::run`]) is the protected
//!   run — every page a host presents and every fleet epoch. It holds `eip`, the
//!   instruction count and the code table in locals and executes straight through
//!   cached code: the common instruction forms are matched with their operand shapes in
//!   one `match`, every other form goes the per-instruction way. It still charges the
//!   budget, stores `machine.eip` (which hooks and faults read) and walks the hook
//!   site table on every instruction; it leaves its inner loop only where the table
//!   misses — a block to build, or injected code.
//! * **The per-instruction loop** ([`ManagedExecutionEnvironment::run_with_tracer`])
//!   is learning's. Every instruction is fetched into an [`InstWithAddr`], offered to
//!   the tracer, and executed by `Executor::execute_instruction` and
//!   [`Machine::exec_data_inst`]. It is the reference semantics the block loop is held
//!   to (a differential proptest, `env/parity.rs`), and it stays its own loop because
//!   one loop made generic over the tracer measured 14–25% slower on traced runs.
//!
//! Both share the hook walk, the Memory Firewall's transfer check, call and return,
//! and the per-instruction step that the block loop falls back to.

use crate::cache::{CodeCache, CodeTable};
use crate::error::{CrashInfo, CrashKind, RuntimeError};
use crate::hooks::{Hook, HookAction, HookContext, HookEntry, HookId, HookRegistry, Observation};
use crate::machine::{alu, Machine, MemFault};
use crate::monitors::{Failure, FailureKind, MonitorConfig, ShadowStack, StackFrame};
use crate::shared::SharedProgram;
use crate::stats::ExecutionStats;
use crate::trace::{AddrComputation, ExecEvent, OperandValue, Tracer};
use cv_isa::{decode, Addr, BinaryImage, Flags, Inst, InstWithAddr, Operand, Reg, Word};
use std::sync::Arc;

/// Configuration of one managed environment instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnvConfig {
    /// Which monitors are enabled.
    pub monitors: MonitorConfig,
    /// Runaway-loop guard: the maximum number of guest instructions per run.
    pub max_instructions: u64,
}

impl Default for EnvConfig {
    fn default() -> Self {
        EnvConfig {
            monitors: MonitorConfig::full(),
            max_instructions: 2_000_000,
        }
    }
}

impl EnvConfig {
    /// A configuration with the given monitors and the default instruction budget.
    pub fn with_monitors(monitors: MonitorConfig) -> Self {
        EnvConfig {
            monitors,
            ..Default::default()
        }
    }
}

/// How a run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunStatus {
    /// The guest executed `halt`.
    Completed,
    /// A monitor detected a failure and terminated the run.
    Failure(Failure),
    /// The guest crashed without a monitor detecting anything.
    Crash(CrashInfo),
}

/// The full result of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// How the run ended.
    pub status: RunStatus,
    /// Words the guest wrote to the render port (the "display" used for the autoimmune
    /// and false-positive evaluations).
    pub rendered: Vec<Word>,
    /// Words the guest wrote to the debug port.
    pub debug: Vec<Word>,
    /// Event counts for this run.
    pub stats: ExecutionStats,
    /// Invariant-check observations emitted by hooks during the run.
    pub observations: Vec<Observation>,
}

impl RunResult {
    /// True if the guest halted normally.
    pub fn is_completed(&self) -> bool {
        matches!(self.status, RunStatus::Completed)
    }

    /// True if the run ended in a crash.
    pub fn is_crash(&self) -> bool {
        matches!(self.status, RunStatus::Crash(_))
    }

    /// The failure, if a monitor detected one.
    pub fn failure(&self) -> Option<&Failure> {
        match &self.status {
            RunStatus::Failure(f) => Some(f),
            _ => None,
        }
    }
}

/// Internal: how a run ended, as the step that ended it reports it.
enum StepEnd {
    Halt,
    Fail(Failure),
    Crash(CrashInfo),
}

impl StepEnd {
    fn crash(kind: CrashKind, location: Addr) -> StepEnd {
        StepEnd::Crash(CrashInfo { kind, location })
    }
}

impl From<StepEnd> for RunStatus {
    fn from(end: StepEnd) -> RunStatus {
        match end {
            StepEnd::Halt => RunStatus::Completed,
            StepEnd::Fail(f) => RunStatus::Failure(f),
            StepEnd::Crash(c) => RunStatus::Crash(c),
        }
    }
}

/// Internal: what one instruction did — the address the run goes on at, or its end.
type Step = Result<Addr, StepEnd>;

/// Where instructions come from: a private on-demand code cache (the classic shape,
/// required for tracing's first-execution block signals) or a fleet-shared pre-decoded
/// index plus the pristine address space its machines read from. Either way the run
/// loop fetches from one [`CodeTable`]; the shapes differ in what a miss means.
enum Fetch {
    /// Private cache; each run loads the image's pages into its own memory.
    Classic(CodeCache),
    /// Shared immutable program state: pre-decoded instructions and a shared base.
    /// Untraced runs are observationally identical to `Classic`; block
    /// first-execution tracer signals are not produced (nothing is ever "built").
    Shared {
        index: Arc<CodeTable>,
        pristine: Arc<[Word]>,
    },
}

impl Fetch {
    #[inline]
    fn table(&self) -> &CodeTable {
        match self {
            Fetch::Classic(cache) => cache.table(),
            Fetch::Shared { index, .. } => index,
        }
    }

    /// The instruction at `eip` when the table does not hold it — and, when a block was
    /// built for it, that block's start — or `None` where the guest crashes on an
    /// invalid instruction. The one place a run changes the cache. Inside the code
    /// segment the classic cache builds the block that starts there, while the
    /// pre-built index has already settled that the address does not decode; outside
    /// it the guest is executing injected code, which is only reachable with the
    /// Memory Firewall disabled and is decoded directly from memory.
    #[cold]
    fn miss(
        &mut self,
        image: &BinaryImage,
        machine: &Machine,
        eip: Addr,
    ) -> Option<(InstWithAddr, Option<Addr>)> {
        if !image.contains_code_addr(eip) {
            return decode_from_memory(machine, eip).map(|iwa| (iwa, None));
        }
        match self {
            Fetch::Classic(cache) => cache.fetch(image, eip).ok(),
            Fetch::Shared { .. } => None,
        }
    }
}

/// Decode one instruction directly from guest memory (execution of injected code when
/// the Memory Firewall is disabled).
fn decode_from_memory(machine: &Machine, eip: Addr) -> Option<InstWithAddr> {
    let mut words = [0; 8];
    let mut readable = 0;
    for (i, word) in words.iter_mut().enumerate() {
        match machine.read_mem(eip.wrapping_add(i as Addr)) {
            Ok(w) => *word = w,
            Err(_) => break,
        }
        readable += 1;
    }
    let (inst, len) = decode(&words[..readable], 0).ok()?;
    Some(InstWithAddr {
        addr: eip,
        inst,
        len,
    })
}

/// What a run executes on, kept by the environment from one run to the next.
struct Guest {
    machine: Machine,
    shadow: ShadowStack,
}

/// What a run gathers besides its guest's state.
struct Run {
    stats: ExecutionStats,
    observations: Vec<Observation>,
    /// What auxiliary-store hooks hand to the checks after them: the run's, like its
    /// observations, so no value survives into the next run.
    aux: Vec<(u64, Word)>,
}

/// Everything one instruction of either loop works on: the environment's image and
/// configuration — borrowed apart from its cache and hooks, which the loops hold
/// themselves — and the run's guest and counts.
struct Executor<'r> {
    image: &'r BinaryImage,
    config: &'r EnvConfig,
    machine: &'r mut Machine,
    shadow: &'r mut ShadowStack,
    run: &'r mut Run,
}

/// The managed execution environment for one application image.
pub struct ManagedExecutionEnvironment {
    image: Arc<BinaryImage>,
    config: EnvConfig,
    fetch: Fetch,
    hooks: HookRegistry,
    cumulative: ExecutionStats,
    /// The last run's guest, which the next run resets instead of building its own;
    /// `None` before the first run and for the duration of every run (module docs).
    guest: Option<Guest>,
}

impl ManagedExecutionEnvironment {
    /// Create an environment for `image`.
    pub fn new(image: BinaryImage, config: EnvConfig) -> Self {
        ManagedExecutionEnvironment {
            hooks: HookRegistry::for_code(image.layout.code_base, image.code.len()),
            image: Arc::new(image),
            config,
            fetch: Fetch::Classic(CodeCache::new()),
            cumulative: ExecutionStats::default(),
            guest: None,
        }
    }

    /// Create an environment running off a [`SharedProgram`]: no private image copy,
    /// no private code cache, and machines whose address space is a copy-on-write
    /// overlay over the shared pristine space. Untraced runs behave exactly like an
    /// environment from [`ManagedExecutionEnvironment::new`]; use the classic shape
    /// when a [`Tracer`] needs block first-execution signals.
    pub fn with_shared(program: &SharedProgram, config: EnvConfig) -> Self {
        ManagedExecutionEnvironment {
            image: program.image().clone(),
            config,
            fetch: Fetch::Shared {
                index: program.index().clone(),
                pristine: program.pristine().clone(),
            },
            hooks: HookRegistry::for_code(
                program.image().layout.code_base,
                program.image().code.len(),
            ),
            cumulative: ExecutionStats::default(),
            guest: None,
        }
    }

    /// The loaded image.
    pub fn image(&self) -> &BinaryImage {
        &self.image
    }

    /// The current configuration.
    pub fn config(&self) -> EnvConfig {
        self.config
    }

    /// Change the monitor configuration (takes effect on the next run).
    pub fn set_monitors(&mut self, monitors: MonitorConfig) {
        self.config.monitors = monitors;
    }

    /// Statistics accumulated across all runs of this environment.
    pub fn cumulative_stats(&self) -> ExecutionStats {
        self.cumulative
    }

    /// Reset the accumulated statistics.
    pub fn reset_cumulative_stats(&mut self) {
        self.cumulative = ExecutionStats::default();
    }

    /// Number of registered hooks (applied patches).
    pub fn hook_count(&self) -> usize {
        self.hooks.len()
    }

    /// Addresses that currently carry hooks, ascending.
    pub fn hooked_addrs(&self) -> Vec<Addr> {
        self.hooks.hooked_addrs()
    }

    /// Apply a hook (patch) at `addr` without restarting the application: the cached
    /// blocks containing the address are ejected and rebuilt on next execution.
    pub fn apply_hook(&mut self, addr: Addr, hook: Box<dyn Hook>) -> HookId {
        if let Fetch::Classic(cache) = &mut self.fetch {
            cache.eject_blocks_containing(addr);
        }
        self.hooks.add(addr, hook)
    }

    /// Remove a previously applied hook.
    pub fn remove_hook(&mut self, id: HookId) -> Result<(), RuntimeError> {
        match self.hooks.remove(id) {
            Some(addr) => {
                if let Fetch::Classic(cache) = &mut self.fetch {
                    cache.eject_blocks_containing(addr);
                }
                Ok(())
            }
            None => Err(RuntimeError::UnknownHook(id)),
        }
    }

    /// Remove every hook.
    pub fn clear_hooks(&mut self) {
        if let Fetch::Classic(cache) = &mut self.fetch {
            for addr in self.hooks.hooked_addrs() {
                cache.eject_blocks_containing(addr);
            }
        }
        self.hooks.clear();
    }

    /// Drop all cached blocks (simulates a cold start / application restart). A
    /// shared-program environment has no private cache; its runs are always cold in
    /// exactly this sense, so this is a no-op there.
    pub fn flush_cache(&mut self) {
        if let Fetch::Classic(cache) = &mut self.fetch {
            cache.flush();
        }
    }

    /// Run the application on `input` without tracing, on the block loop (module
    /// docs).
    pub fn run(&mut self, input: &[Word]) -> RunResult {
        self.run_on(input, |exec, fetch, hooks| exec.block_loop(fetch, hooks))
    }

    /// Run the application on `input` on the per-instruction loop (module docs),
    /// delivering a full execution trace to `tracer` — the learning configuration.
    pub fn run_with_tracer(&mut self, input: &[Word], tracer: &mut dyn Tracer) -> RunResult {
        self.run_on(input, |exec, fetch, hooks| {
            let end = exec.traced_loop(fetch, hooks, tracer);
            tracer.on_run_end();
            end
        })
    }

    /// One run on `input`: a guest, then `run_loop` over it, then the run's counts
    /// completed, its guest handed back to the environment and its outputs to the
    /// caller.
    fn run_on(
        &mut self,
        input: &[Word],
        run_loop: impl FnOnce(&mut Executor<'_>, &mut Fetch, &mut HookRegistry) -> StepEnd,
    ) -> RunResult {
        let mut guest = self.take_guest(input);
        let (built, ejected) = match &self.fetch {
            Fetch::Classic(cache) => (cache.blocks_built, cache.blocks_ejected),
            Fetch::Shared { .. } => (0, 0),
        };
        let mut run = Run {
            stats: ExecutionStats {
                runs: 1,
                ..Default::default()
            },
            observations: Vec::new(),
            aux: Vec::new(),
        };
        let Self {
            image,
            config,
            fetch,
            hooks,
            ..
        } = self;
        let mut exec = Executor {
            image,
            config,
            machine: &mut guest.machine,
            shadow: &mut guest.shadow,
            run: &mut run,
        };
        let end = run_loop(&mut exec, fetch, hooks);

        let Run {
            mut stats,
            observations,
            ..
        } = run;
        stats.heap_guard_checks = guest.machine.heap_guard_checks;
        stats.shadow_stack_ops = guest.shadow.ops;
        if let Fetch::Classic(cache) = &self.fetch {
            stats.blocks_built = cache.blocks_built - built;
            stats.blocks_ejected = cache.blocks_ejected - ejected;
        }
        self.cumulative.merge(&stats);

        let (rendered, debug) = guest.machine.take_outputs();
        guest.machine.release_pages();
        self.guest = Some(guest);
        RunResult {
            status: end.into(),
            rendered,
            debug,
            stats,
            observations,
        }
    }

    /// The guest for a run on `input`, taken out of the environment: the last run's,
    /// reset, or on the first run (and the first after a run that panicked) a new one.
    fn take_guest(&mut self, input: &[Word]) -> Guest {
        let heap_guard = self.config.monitors.heap_guard;
        match self.guest.take() {
            Some(mut guest) => {
                guest.machine.reset(&self.image, input, heap_guard);
                guest.shadow.reset();
                guest
            }
            None => Guest {
                machine: match &self.fetch {
                    Fetch::Shared { pristine, .. } => {
                        Machine::with_cow(&self.image, pristine.clone(), input.to_vec(), heap_guard)
                    }
                    Fetch::Classic(_) => Machine::new(&self.image, input.to_vec(), heap_guard),
                },
                shadow: ShadowStack::new(),
            },
        }
    }
}

/// Fill the per-instruction trace record in place: the values of all operands read and
/// all addresses computed, plus the stack pointer. Reusing one record across a run
/// keeps the tracing path free of per-event heap allocation.
fn fill_exec_event(machine: &Machine, iwa: &InstWithAddr, event: &mut ExecEvent) {
    event.addr = iwa.addr;
    event.inst = iwa.inst;
    event.sp = machine.reg(Reg::Esp);
    event.reads.clear();
    for (slot, op) in iwa.inst.operands_read().into_iter().enumerate() {
        if let Ok(value) = machine.read_operand(&op) {
            event.reads.push(OperandValue {
                slot: slot as u8,
                operand: op,
                value,
            });
        }
    }
    event.addrs.clear();
    for (slot, mem) in iwa.inst.mem_refs().into_iter().enumerate() {
        event.addrs.push(AddrComputation {
            slot: slot as u8,
            mem,
            addr: machine.effective_addr(&mem),
        });
    }
}

impl Executor<'_> {
    /// The block loop (module docs): straight through cached code, leaving
    /// [`Executor::run_cached`] only where the table misses.
    fn block_loop(&mut self, fetch: &mut Fetch, hooks: &mut HookRegistry) -> StepEnd {
        let mut eip = self.machine.eip;
        let mut executed = 0;
        let end = loop {
            eip = match self.run_cached(fetch.table(), hooks, eip, &mut executed) {
                Ok(miss) => miss,
                Err(end) => break end,
            };
            if executed >= self.config.max_instructions {
                break StepEnd::crash(CrashKind::InstructionBudgetExhausted, eip);
            }
            // A miss: the cache builds the block that starts here, or the guest runs
            // injected code. This one instruction goes the per-instruction way.
            let Some((iwa, _)) = fetch.miss(self.image, self.machine, eip) else {
                break StepEnd::crash(CrashKind::InvalidInstruction { addr: eip }, eip);
            };
            executed += 1;
            self.machine.eip = eip;
            match self.step(hooks, &iwa) {
                Ok(to) => eip = to,
                Err(end) => break end,
            }
        };
        self.run.stats.instructions = executed;
        end
    }

    /// The per-instruction loop (module docs): every instruction fetched, offered to
    /// `tracer`, and stepped.
    fn traced_loop(
        &mut self,
        fetch: &mut Fetch,
        hooks: &mut HookRegistry,
        tracer: &mut dyn Tracer,
    ) -> StepEnd {
        // One scratch record reused for every traced instruction: its vectors are
        // cleared and refilled in place, so the tracing path performs no per-event
        // heap allocation once their (≤ 3 element) capacities are warm.
        let mut scratch = ExecEvent {
            addr: 0,
            inst: Inst::Nop,
            reads: Vec::new(),
            addrs: Vec::new(),
            sp: 0,
        };
        let budget = self.config.max_instructions;
        let mut eip = self.machine.eip;
        let mut executed = 0;
        let end = loop {
            if executed >= budget {
                break StepEnd::crash(CrashKind::InstructionBudgetExhausted, eip);
            }

            // ---- Fetch ------------------------------------------------------------
            let iwa = match fetch.table().hit(eip) {
                Some((&inst, len)) => InstWithAddr {
                    addr: eip,
                    inst,
                    len,
                },
                None => match fetch.miss(self.image, self.machine, eip) {
                    Some((iwa, built)) => {
                        if let Some(start) = built {
                            tracer.on_block_first_execution(start);
                        }
                        iwa
                    }
                    None => break StepEnd::crash(CrashKind::InvalidInstruction { addr: eip }, eip),
                },
            };

            executed += 1;
            self.machine.eip = eip;

            // ---- Trace ------------------------------------------------------------
            if tracer.wants_addr(eip) {
                fill_exec_event(self.machine, &iwa, &mut scratch);
                tracer.on_inst(&scratch);
                self.run.stats.trace_events += 1;
            }
            // Procedure discovery: report resolved call targets.
            match iwa.inst {
                Inst::Call { target } => tracer.on_call(eip, target),
                Inst::CallIndirect { target } => {
                    if let Ok(t) = self.machine.read_operand(&target) {
                        tracer.on_call(eip, t);
                    }
                }
                _ => {}
            }

            // ---- Hooks, then the instruction ----------------------------------------
            match self.step(hooks, &iwa) {
                Ok(next) => eip = next,
                Err(end) => break end,
            }
        };
        self.run.stats.instructions = executed;
        end
    }

    /// The block loop's inner loop: execute straight through cached code from `eip`,
    /// with `table` borrowed once, and return the address where the table misses — or
    /// how the run ended. `executed` counts every instruction against the budget.
    ///
    /// Kept a function of its own: called, rather than inlined into the loop around
    /// it, it measured some 3% faster on `host_heavy`.
    #[inline(never)]
    fn run_cached(
        &mut self,
        table: &CodeTable,
        hooks: &mut HookRegistry,
        mut eip: Addr,
        executed: &mut u64,
    ) -> Step {
        let budget = self.config.max_instructions;
        while let Some((inst, len)) = table.hit(eip) {
            if *executed >= budget {
                return Err(StepEnd::crash(CrashKind::InstructionBudgetExhausted, eip));
            }
            *executed += 1;
            self.machine.eip = eip;
            let next = eip + len;
            let redirected = match hooks.at_mut(eip) {
                Some(entries) => self.walk_hooks(entries, *inst, eip, next),
                None => None,
            };
            eip = match redirected {
                Some(step) => step,
                None => self.execute_fast(inst, eip, next),
            }?;
        }
        Ok(eip)
    }

    /// One instruction the per-instruction way: its hooks, then — unless one of them
    /// redirected the run — [`Executor::execute_instruction`]. `machine.eip` already
    /// holds its address.
    ///
    /// Forced inline, as is `execute_instruction`: called out of line, the
    /// per-instruction loop measured 6–9% slower on traced runs.
    #[inline(always)]
    fn step(&mut self, hooks: &mut HookRegistry, iwa: &InstWithAddr) -> Step {
        let (eip, next) = (iwa.addr, iwa.next_addr());
        if let Some(entries) = hooks.at_mut(eip) {
            if let Some(step) = self.walk_hooks(entries, iwa.inst, eip, next) {
                return step;
            }
        }
        self.execute_instruction(&iwa.inst, eip, next)
    }

    /// Run the hooks at `eip` in installation order until one answers other than
    /// [`HookAction::Continue`]; where that answer sends the run, or `None` to execute
    /// the instruction.
    fn walk_hooks(
        &mut self,
        entries: &mut [HookEntry],
        inst: Inst,
        eip: Addr,
        next: Addr,
    ) -> Option<Step> {
        let run = &mut *self.run;
        for (id, hook) in entries {
            run.stats.hook_invocations += 1;
            let mut ctx = HookContext::new(
                self.machine,
                inst,
                eip,
                *id,
                &mut run.observations,
                &mut run.aux,
            );
            match hook.on_execute(&mut ctx) {
                HookAction::Continue => {}
                HookAction::SkipInstruction => return Some(Ok(next)),
                HookAction::ReturnFromProcedure { sp_adjust } => {
                    let sp = self.machine.reg(Reg::Esp);
                    self.machine
                        .set_reg(Reg::Esp, sp.wrapping_add(sp_adjust as u32));
                    return Some(self.do_return(eip));
                }
            }
        }
        None
    }

    /// One instruction in the block loop, its hooks already run: the common forms
    /// matched with their operand shapes, every other form the per-instruction way.
    #[inline(always)]
    fn execute_fast(&mut self, inst: &Inst, eip: Addr, next: Addr) -> Step {
        use Operand::{Mem, Reg as R};
        let m = &mut *self.machine;
        let done = match *inst {
            Inst::Mov { dst: R(d), src } => m.read_operand(&src).map(|v| m.set_reg(d, v)),
            Inst::Mov {
                dst: Mem(a),
                src: R(s),
            } => m.write_mem(m.effective_addr(&a), m.reg(s)),
            Inst::Add { dst: R(d), src } => m.read_operand(&src).map(|v| m.reg_op(d, v, alu::add)),
            Inst::Sub { dst: R(d), src } => m.read_operand(&src).map(|v| m.reg_op(d, v, alu::sub)),
            Inst::And { dst: R(d), src } => m.read_operand(&src).map(|v| m.reg_op(d, v, alu::and)),
            Inst::Shl { dst: R(d), src } => m.read_operand(&src).map(|v| m.reg_op(d, v, alu::shl)),
            Inst::Cmp { a: R(r), b } => m
                .read_operand(&b)
                .map(|v| m.flags = Flags::from_cmp(m.reg(r), v)),
            Inst::Push { src: R(r) } => m.push(m.reg(r)),
            Inst::Pop { dst: R(r) } => m.pop().map(|v| m.set_reg(r, v)),
            Inst::Jmp { target } => return self.jump(eip, target),
            Inst::Jcc { cond, target } if cond.eval(m.flags) => return self.jump(eip, target),
            Inst::Jcc { .. } => return Ok(next),
            Inst::Call { target } => return self.do_call(eip, next, target),
            Inst::Ret => return self.do_return(eip),
            _ => return self.execute_other(inst, eip, next),
        };
        match done {
            Ok(()) => Ok(next),
            Err(fault) => Err(fault_to_end(fault, eip, self.shadow)),
        }
    }

    /// The block loop's way to [`Executor::execute_instruction`]: a call, so that the
    /// loop does not carry a second copy of it.
    #[inline(never)]
    fn execute_other(&mut self, inst: &Inst, eip: Addr, next: Addr) -> Step {
        self.execute_instruction(inst, eip, next)
    }

    /// Execute one instruction the per-instruction way (its hooks have already run):
    /// control flow here, everything else by [`Machine::exec_data_inst`].
    #[inline(always)]
    fn execute_instruction(&mut self, inst: &Inst, eip: Addr, next: Addr) -> Step {
        match *inst {
            Inst::Halt => Err(StepEnd::Halt),
            Inst::Jmp { target } => self.jump(eip, target),
            Inst::Jcc { cond, target } => {
                if cond.eval(self.machine.flags) {
                    self.jump(eip, target)
                } else {
                    Ok(next)
                }
            }
            Inst::JmpIndirect { target } => {
                let tval = self.operand(&target, eip)?;
                self.jump(eip, tval)
            }
            Inst::Call { target } => self.do_call(eip, next, target),
            Inst::CallIndirect { target } => {
                let tval = self.operand(&target, eip)?;
                self.do_call(eip, next, tval)
            }
            Inst::Ret => self.do_return(eip),
            _ => match self.machine.exec_data_inst(inst) {
                Ok(()) => Ok(next),
                Err(fault) => Err(fault_to_end(fault, eip, self.shadow)),
            },
        }
    }

    /// The value of a control transfer's operand.
    fn operand(&self, op: &Operand, location: Addr) -> Result<Addr, StepEnd> {
        self.machine
            .read_operand(op)
            .map_err(|fault| fault_to_end(fault, location, self.shadow))
    }

    /// Validate a control transfer from `location` to `target`.
    ///
    /// With the Memory Firewall enabled, a target outside the loaded code image is an
    /// illegal control transfer failure (detected *before* the transfer happens, so
    /// injected code never executes). Without the firewall, transfers to mapped memory
    /// are allowed (injected code executes) and transfers to unmapped memory crash.
    #[inline]
    fn validate_transfer(&mut self, location: Addr, target: Addr) -> Result<(), StepEnd> {
        let (image, firewall) = (self.image, self.config.monitors.memory_firewall);
        self.run.stats.firewall_checks += u64::from(firewall);
        if image.contains_code_addr(target) || !firewall && image.layout.is_mapped(target) {
            Ok(())
        } else {
            Err(self.refused_transfer(location, target))
        }
    }

    /// How a transfer that [`Executor::validate_transfer`] refuses ends the run.
    #[cold]
    fn refused_transfer(&self, location: Addr, target: Addr) -> StepEnd {
        if self.config.monitors.memory_firewall {
            StepEnd::Fail(Failure {
                kind: FailureKind::IllegalControlTransfer { target },
                location,
                call_stack: self.shadow.frames().to_vec(),
            })
        } else {
            StepEnd::crash(CrashKind::WildJump { target }, location)
        }
    }

    /// A jump from `location` to `target`, once the Memory Firewall allows it.
    #[inline]
    fn jump(&mut self, location: Addr, target: Addr) -> Step {
        self.validate_transfer(location, target)?;
        Ok(target)
    }

    /// Perform call semantics to the already-resolved target `tval`.
    ///
    /// The Memory Firewall validation happens before any state changes so that a blocked
    /// call never pushes a frame and injected code never runs.
    #[inline]
    fn do_call(&mut self, eip: Addr, next: Addr, tval: Addr) -> Step {
        self.validate_transfer(eip, tval)?;
        if let Err(fault) = self.machine.push(next) {
            return Err(fault_to_end(fault, eip, self.shadow));
        }
        if self.config.monitors.shadow_stack {
            self.shadow.push(StackFrame {
                proc_entry: tval,
                call_site: eip,
                return_addr: next,
            });
        }
        Ok(tval)
    }

    /// Perform `ret` semantics: pop the return address, validate it, update the shadow
    /// stack, and transfer.
    #[inline(always)]
    fn do_return(&mut self, location: Addr) -> Step {
        let ra = match self.machine.pop() {
            Ok(v) => v,
            Err(fault) => return Err(fault_to_end(fault, location, self.shadow)),
        };
        self.validate_transfer(location, ra)?;
        if self.config.monitors.shadow_stack {
            self.shadow.pop();
        }
        Ok(ra)
    }
}

/// How a memory fault at `location` ends the run.
#[cold]
fn fault_to_end(fault: MemFault, location: Addr, shadow: &ShadowStack) -> StepEnd {
    match fault {
        MemFault::Crash(kind) => StepEnd::crash(kind, location),
        MemFault::HeapGuardViolation { addr } => StepEnd::Fail(Failure {
            kind: FailureKind::OutOfBoundsWrite { addr },
            location,
            call_stack: shadow.frames().to_vec(),
        }),
    }
}

#[cfg(test)]
mod parity;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::ObservationKind;
    use crate::trace::RecordingTracer;
    use cv_isa::{Cond, MemRef, Operand, Port, ProgramBuilder};

    /// A program that reads a word, doubles it via a helper call, and renders it.
    fn double_program() -> BinaryImage {
        let mut b = ProgramBuilder::new();
        let main = b.new_label("main");
        let double = b.new_label("double");
        b.bind(main);
        b.input(Reg::Eax, Port::Input);
        b.call(double);
        b.output(Reg::Eax, Port::Render);
        b.halt();
        b.bind(double);
        b.add(Reg::Eax, Reg::Eax);
        b.ret();
        b.set_entry(main);
        b.build().unwrap()
    }

    /// A program that makes an indirect call through a register loaded from input.
    fn indirect_call_program() -> (BinaryImage, Addr) {
        let mut b = ProgramBuilder::new();
        let main = b.new_label("main");
        let callee = b.new_label("callee");
        b.bind(main);
        b.input(Reg::Eax, Port::Input);
        let call_site = b.call_indirect(Reg::Eax);
        b.output(1u32, Port::Render);
        b.halt();
        b.bind(callee);
        b.output(2u32, Port::Render);
        b.ret();
        b.set_entry(main);
        let callee_addr = b.label_addr(callee).unwrap();
        let image = b.build().unwrap();
        let _ = call_site;
        (image, callee_addr)
    }

    #[test]
    fn completes_and_renders_output() {
        let mut env = ManagedExecutionEnvironment::new(double_program(), EnvConfig::default());
        let r = env.run(&[21]);
        assert!(r.is_completed());
        assert_eq!(r.rendered, vec![42]);
        assert!(r.stats.instructions >= 6);
    }

    #[test]
    fn legal_indirect_call_is_allowed() {
        let (image, callee) = indirect_call_program();
        let mut env = ManagedExecutionEnvironment::new(image, EnvConfig::default());
        let r = env.run(&[callee]);
        assert!(r.is_completed());
        assert_eq!(r.rendered, vec![2, 1]);
        assert!(r.stats.firewall_checks > 0);
    }

    #[test]
    fn memory_firewall_blocks_illegal_indirect_call() {
        let (image, _) = indirect_call_program();
        let heap_target = image.layout.heap_base + 5;
        let mut env = ManagedExecutionEnvironment::new(image, EnvConfig::default());
        let r = env.run(&[heap_target]);
        let f = r.failure().expect("failure detected");
        assert_eq!(
            f.kind,
            FailureKind::IllegalControlTransfer {
                target: heap_target
            }
        );
        // The injected target never executed: nothing was rendered.
        assert!(r.rendered.is_empty());
    }

    #[test]
    fn without_firewall_wild_jump_to_unmapped_crashes() {
        let (image, _) = indirect_call_program();
        let mut env = ManagedExecutionEnvironment::new(
            image,
            EnvConfig::with_monitors(MonitorConfig::bare()),
        );
        let r = env.run(&[3]); // address 3 is unmapped
        assert!(r.is_crash());
    }

    #[test]
    fn without_firewall_injected_code_executes() {
        // The attacker's "shellcode" is a rendered marker followed by halt, staged in
        // the data segment by the program itself (simulating downloaded content).
        let mut b = ProgramBuilder::new();
        let main = b.new_label("main");
        b.bind(main);
        // Write encoded `out 0xEV1L, Render; halt` into the heap, then call it.
        let payload: Vec<u32> = {
            let mut w = cv_isa::encode(Inst::Out {
                src: Operand::Imm(0xEE11),
                port: Port::Render,
            });
            w.extend(cv_isa::encode(Inst::Halt));
            w
        };
        let payload_addr = b.data_words(&payload);
        b.call_indirect(payload_addr);
        b.halt();
        b.set_entry(main);
        let image = b.build().unwrap();

        // Unprotected: the injected code runs and emits the marker.
        let mut env = ManagedExecutionEnvironment::new(
            image.clone(),
            EnvConfig::with_monitors(MonitorConfig::bare()),
        );
        let r = env.run(&[]);
        assert!(r.is_completed());
        assert_eq!(r.rendered, vec![0xEE11]);

        // Protected: the Memory Firewall terminates the run before the payload runs.
        let mut env = ManagedExecutionEnvironment::new(image, EnvConfig::default());
        let r = env.run(&[]);
        assert!(r.failure().is_some());
        assert!(r.rendered.is_empty());
    }

    #[test]
    fn heap_guard_failure_reports_copy_location_and_call_stack() {
        let mut b = ProgramBuilder::new();
        let main = b.new_label("main");
        let writer = b.new_label("writer");
        b.bind(main);
        b.call(writer);
        b.halt();
        b.bind(writer);
        b.alloc(Reg::Ebx, 2u32);
        // Out-of-bounds store two words past the allocation start (onto the canary).
        let store_addr = b.mov(Operand::Mem(MemRef::base_disp(Reg::Ebx, 2)), 7u32);
        b.ret();
        b.set_entry(main);
        let image = b.build().unwrap();
        let mut env = ManagedExecutionEnvironment::new(image, EnvConfig::default());
        let r = env.run(&[]);
        let f = r.failure().expect("heap guard failure");
        assert!(matches!(f.kind, FailureKind::OutOfBoundsWrite { .. }));
        assert_eq!(f.location, store_addr);
        assert_eq!(f.call_stack.len(), 1, "shadow stack has the caller frame");
    }

    #[test]
    fn shadow_stack_disabled_gives_empty_call_stack() {
        let mut b = ProgramBuilder::new();
        let main = b.new_label("main");
        let writer = b.new_label("writer");
        b.bind(main);
        b.call(writer);
        b.halt();
        b.bind(writer);
        b.alloc(Reg::Ebx, 2u32);
        b.mov(Operand::Mem(MemRef::base_disp(Reg::Ebx, 2)), 7u32);
        b.ret();
        b.set_entry(main);
        let image = b.build().unwrap();
        let mut env = ManagedExecutionEnvironment::new(
            image,
            EnvConfig::with_monitors(MonitorConfig::firewall_and_heap_guard()),
        );
        let r = env.run(&[]);
        let f = r.failure().expect("failure");
        assert!(f.call_stack.is_empty());
    }

    #[test]
    fn tracer_receives_events_and_blocks() {
        let mut env = ManagedExecutionEnvironment::new(double_program(), EnvConfig::default());
        let mut tracer = RecordingTracer::new();
        let r = env.run_with_tracer(&[5], &mut tracer);
        assert!(r.is_completed());
        assert_eq!(r.stats.trace_events, r.stats.instructions);
        assert_eq!(tracer.events.len() as u64, r.stats.trace_events);
        assert!(!tracer.blocks.is_empty());
        assert_eq!(tracer.calls.len(), 1);
        assert_eq!(tracer.runs, 1);
        // The add instruction saw eax = 5 for both of its read slots.
        let add_event = tracer
            .events
            .iter()
            .find(|e| matches!(e.inst, Inst::Add { .. }))
            .expect("add traced");
        assert_eq!(add_event.reads.len(), 2);
        assert!(add_event.reads.iter().all(|r| r.value == 5));
    }

    #[test]
    fn selective_tracing_skips_other_addresses() {
        let image = double_program();
        let entry = image.entry;
        let mut env = ManagedExecutionEnvironment::new(image, EnvConfig::default());
        let mut tracer = RecordingTracer::with_filter([entry]);
        let r = env.run_with_tracer(&[5], &mut tracer);
        assert!(r.is_completed());
        assert_eq!(tracer.events.len(), 1);
        assert_eq!(r.stats.trace_events, 1);
    }

    #[test]
    fn hooks_can_observe_and_mutate_state() {
        struct ForceValue {
            observed: u32,
        }
        impl Hook for ForceValue {
            fn on_execute(&mut self, ctx: &mut HookContext<'_>) -> HookAction {
                self.observed = ctx.machine.reg(Reg::Eax);
                ctx.observe(ObservationKind::Violated);
                ctx.machine.set_reg(Reg::Eax, 100);
                HookAction::Continue
            }
        }
        let image = double_program();
        let mut env = ManagedExecutionEnvironment::new(image, EnvConfig::default());
        // Hook the `add eax, eax` instruction inside `double`. Find it by scanning.
        let insts = cv_isa::decode_all(&env.image().code, env.image().layout.code_base).unwrap();
        let add_addr = insts
            .iter()
            .find(|i| matches!(i.inst, Inst::Add { .. }))
            .unwrap()
            .addr;
        env.apply_hook(add_addr, Box::new(ForceValue { observed: 0 }));
        let r = env.run(&[5]);
        assert!(r.is_completed());
        assert_eq!(
            r.rendered,
            vec![200],
            "hook forced eax to 100 before doubling"
        );
        assert_eq!(r.observations.len(), 1);
        assert_eq!(r.observations[0].kind, ObservationKind::Violated);
        assert_eq!(r.stats.hook_invocations, 1);
    }

    #[test]
    fn skip_instruction_hook_prevents_execution() {
        struct Skip;
        impl Hook for Skip {
            fn on_execute(&mut self, _ctx: &mut HookContext<'_>) -> HookAction {
                HookAction::SkipInstruction
            }
        }
        let image = double_program();
        let mut env = ManagedExecutionEnvironment::new(image, EnvConfig::default());
        let insts = cv_isa::decode_all(&env.image().code, env.image().layout.code_base).unwrap();
        let add_addr = insts
            .iter()
            .find(|i| matches!(i.inst, Inst::Add { .. }))
            .unwrap()
            .addr;
        env.apply_hook(add_addr, Box::new(Skip));
        let r = env.run(&[5]);
        assert!(r.is_completed());
        assert_eq!(r.rendered, vec![5], "the doubling add was skipped");
    }

    #[test]
    fn return_from_procedure_hook_unwinds_correctly() {
        struct EarlyReturn;
        impl Hook for EarlyReturn {
            fn on_execute(&mut self, _ctx: &mut HookContext<'_>) -> HookAction {
                // At this point in `double` nothing has been pushed since entry, so the
                // stack pointer already points at the return address.
                HookAction::ReturnFromProcedure { sp_adjust: 0 }
            }
        }
        let image = double_program();
        let mut env = ManagedExecutionEnvironment::new(image, EnvConfig::default());
        let insts = cv_isa::decode_all(&env.image().code, env.image().layout.code_base).unwrap();
        let add_addr = insts
            .iter()
            .find(|i| matches!(i.inst, Inst::Add { .. }))
            .unwrap()
            .addr;
        env.apply_hook(add_addr, Box::new(EarlyReturn));
        let r = env.run(&[9]);
        assert!(r.is_completed());
        assert_eq!(r.rendered, vec![9], "procedure returned before doubling");
    }

    #[test]
    fn removing_a_hook_restores_behaviour() {
        struct Skip;
        impl Hook for Skip {
            fn on_execute(&mut self, _ctx: &mut HookContext<'_>) -> HookAction {
                HookAction::SkipInstruction
            }
        }
        let image = double_program();
        let mut env = ManagedExecutionEnvironment::new(image, EnvConfig::default());
        let insts = cv_isa::decode_all(&env.image().code, env.image().layout.code_base).unwrap();
        let add_addr = insts
            .iter()
            .find(|i| matches!(i.inst, Inst::Add { .. }))
            .unwrap()
            .addr;
        let id = env.apply_hook(add_addr, Box::new(Skip));
        assert_eq!(env.run(&[5]).rendered, vec![5]);
        env.remove_hook(id).unwrap();
        assert_eq!(env.run(&[5]).rendered, vec![10]);
        assert!(env.remove_hook(id).is_err());
        // Patch application and removal ejected cache blocks.
        assert!(env.cumulative_stats().blocks_built >= 2);
    }

    #[test]
    fn instruction_budget_guards_runaway_loops() {
        let mut b = ProgramBuilder::new();
        let main = b.new_label("main");
        b.bind(main);
        let spin = b.new_label("spin");
        b.bind(spin);
        b.jmp(spin);
        b.set_entry(main);
        let image = b.build().unwrap();
        let mut env = ManagedExecutionEnvironment::new(
            image,
            EnvConfig {
                max_instructions: 1000,
                ..Default::default()
            },
        );
        let r = env.run(&[]);
        assert!(matches!(
            r.status,
            RunStatus::Crash(CrashInfo {
                kind: CrashKind::InstructionBudgetExhausted,
                ..
            })
        ));
    }

    #[test]
    fn conditional_branches_follow_flags() {
        let mut b = ProgramBuilder::new();
        let main = b.new_label("main");
        b.bind(main);
        b.input(Reg::Eax, Port::Input);
        b.cmp(Reg::Eax, 10u32);
        let big = b.new_label("big");
        b.jcc(Cond::Ge, big);
        b.output(0u32, Port::Render);
        b.halt();
        b.bind(big);
        b.output(1u32, Port::Render);
        b.halt();
        b.set_entry(main);
        let image = b.build().unwrap();
        let mut env = ManagedExecutionEnvironment::new(image, EnvConfig::default());
        assert_eq!(env.run(&[3]).rendered, vec![0]);
        assert_eq!(env.run(&[10]).rendered, vec![1]);
        assert_eq!(env.run(&[55]).rendered, vec![1]);
    }

    /// A shared-program environment is observationally identical to a classic one:
    /// same statuses, renders, and hook observations, across benign inputs, an
    /// illegal-transfer exploit, and an installed hook.
    #[test]
    fn shared_program_env_matches_classic_env() {
        struct Observe;
        impl Hook for Observe {
            fn on_execute(&mut self, ctx: &mut HookContext<'_>) -> HookAction {
                ctx.observe(ObservationKind::Violated);
                HookAction::Continue
            }
        }
        let (image, callee) = indirect_call_program();
        let program = crate::shared::SharedProgram::new(image.clone());
        let mut classic = ManagedExecutionEnvironment::new(image.clone(), EnvConfig::default());
        let mut shared = ManagedExecutionEnvironment::with_shared(&program, EnvConfig::default());
        let hook_addr = image.entry;
        classic.apply_hook(hook_addr, Box::new(Observe));
        shared.apply_hook(hook_addr, Box::new(Observe));

        for input in [vec![callee], vec![image.layout.heap_base + 5], vec![3]] {
            classic.flush_cache();
            shared.flush_cache();
            let a = classic.run(&input);
            let b = shared.run(&input);
            assert_eq!(a.status, b.status);
            assert_eq!(a.rendered, b.rendered);
            assert_eq!(a.debug, b.debug);
            assert_eq!(a.observations, b.observations);
            assert_eq!(a.stats.instructions, b.stats.instructions);
        }
    }

    /// A hook that records one observation and answers with a fixed action.
    struct Answer(HookAction);
    impl Hook for Answer {
        fn on_execute(&mut self, ctx: &mut HookContext<'_>) -> HookAction {
            ctx.observe(ObservationKind::Satisfied);
            self.0
        }
    }

    /// The doubling program on a classic and on a shared-program environment, and the
    /// address of its `add`.
    fn double_envs() -> ([ManagedExecutionEnvironment; 2], Addr) {
        let image = double_program();
        let add_addr = cv_isa::decode_all(&image.code, image.layout.code_base)
            .unwrap()
            .iter()
            .find(|i| matches!(i.inst, Inst::Add { .. }))
            .unwrap()
            .addr;
        let program = crate::shared::SharedProgram::new(image.clone());
        let envs = [
            ManagedExecutionEnvironment::new(image, EnvConfig::default()),
            ManagedExecutionEnvironment::with_shared(&program, EnvConfig::default()),
        ];
        (envs, add_addr)
    }

    fn hooks_seen(r: &RunResult) -> Vec<HookId> {
        r.observations.iter().map(|o| o.hook).collect()
    }

    #[test]
    fn hooks_at_one_address_run_in_installation_order_until_one_redirects() {
        let (envs, add_addr) = double_envs();
        for mut env in envs {
            let first = env.apply_hook(add_addr, Box::new(Answer(HookAction::Continue)));
            let second = env.apply_hook(add_addr, Box::new(Answer(HookAction::SkipInstruction)));
            let third = env.apply_hook(add_addr, Box::new(Answer(HookAction::Continue)));
            let r = env.run(&[5]);
            assert_eq!(
                hooks_seen(&r),
                vec![first, second],
                "the skip shadows the third"
            );
            assert_eq!(r.stats.hook_invocations, 2);
            assert_eq!(r.rendered, vec![5], "and the add did not execute");
            // Without the redirecting hook the walk reaches the end of the list.
            env.remove_hook(second).unwrap();
            let r = env.run(&[5]);
            assert_eq!(hooks_seen(&r), vec![first, third]);
            assert_eq!(r.rendered, vec![10]);
        }
    }

    #[test]
    fn removing_one_of_two_hooks_leaves_the_other_firing() {
        let (envs, add_addr) = double_envs();
        for mut env in envs {
            let first = env.apply_hook(add_addr, Box::new(Answer(HookAction::Continue)));
            let second = env.apply_hook(add_addr, Box::new(Answer(HookAction::Continue)));
            assert_eq!(hooks_seen(&env.run(&[1])), vec![first, second]);
            env.remove_hook(first).unwrap();
            assert_eq!(hooks_seen(&env.run(&[1])), vec![second]);
            assert_eq!(env.hooked_addrs(), vec![add_addr]);
            env.remove_hook(second).unwrap();
            assert!(env.run(&[1]).observations.is_empty());
            assert!(env.hooked_addrs().is_empty());
        }
    }

    /// A patch applied to a warm cache takes effect on the next run — the hooked block
    /// was ejected, and is rebuilt — and stops the run after it is removed.
    #[test]
    fn a_hook_applied_between_runs_of_a_warm_cache_fires_on_the_next_run() {
        let (envs, add_addr) = double_envs();
        for (shape, mut env) in envs.into_iter().enumerate() {
            let classic = shape == 0;
            env.run(&[3]);
            let warm = env.run(&[3]);
            assert_eq!(warm.stats.blocks_built, 0);
            assert_eq!(warm.stats.hook_invocations, 0);

            let id = env.apply_hook(add_addr, Box::new(Answer(HookAction::SkipInstruction)));
            let patched = env.run(&[3]);
            assert_eq!(hooks_seen(&patched), vec![id]);
            assert_eq!(patched.rendered, vec![3]);
            assert_eq!(
                patched.stats.blocks_built, classic as u64,
                "one block rebuilt"
            );
            assert_eq!(
                env.run(&[3]).stats.blocks_built,
                0,
                "warm again, still patched"
            );

            env.remove_hook(id).unwrap();
            let restored = env.run(&[3]);
            assert!(restored.observations.is_empty());
            assert_eq!(restored.rendered, vec![6]);
            assert_eq!(restored.stats.blocks_built, classic as u64);
        }
    }

    /// A hook outside the code segment has no site-table entry; it still fires when
    /// the Memory Firewall is off and the guest executes injected code there — and the
    /// instruction after it, also injected, is not mistaken for hooked.
    #[test]
    fn a_hook_on_injected_code_fires_when_the_firewall_is_off() {
        let mut b = ProgramBuilder::new();
        let main = b.new_label("main");
        b.bind(main);
        let mut payload = cv_isa::encode(Inst::Out {
            src: Operand::Imm(0xEE11),
            port: Port::Render,
        });
        payload.extend(cv_isa::encode(Inst::Halt));
        let payload_addr = b.data_words(&payload);
        b.call_indirect(payload_addr);
        b.halt();
        b.set_entry(main);
        let image = b.build().unwrap();
        assert!(!image.contains_code_addr(payload_addr));
        let program = crate::shared::SharedProgram::new(image.clone());

        for monitors in [MonitorConfig::bare(), MonitorConfig::full()] {
            let config = EnvConfig::with_monitors(monitors);
            for mut env in [
                ManagedExecutionEnvironment::new(image.clone(), config),
                ManagedExecutionEnvironment::with_shared(&program, config),
            ] {
                let in_code = env.apply_hook(image.entry, Box::new(Answer(HookAction::Continue)));
                let injected = env.apply_hook(payload_addr, Box::new(Answer(HookAction::Continue)));
                assert_eq!(env.hooked_addrs(), vec![image.entry, payload_addr]);
                let r = env.run(&[]);
                if monitors.memory_firewall {
                    assert!(r.failure().is_some(), "blocked before the payload runs");
                    assert_eq!(hooks_seen(&r), vec![in_code]);
                } else {
                    assert!(r.is_completed());
                    assert_eq!(r.rendered, vec![0xEE11]);
                    assert_eq!(hooks_seen(&r), vec![in_code, injected]);
                    assert_eq!(r.stats.hook_invocations, 2);
                    // A skip there redirects injected code like any other.
                    env.remove_hook(injected).unwrap();
                    env.apply_hook(payload_addr, Box::new(Answer(HookAction::SkipInstruction)));
                    assert!(env.run(&[]).rendered.is_empty());
                }
            }
        }
    }

    /// The cache's counters as the environment reports them: a run's `blocks_built`
    /// is what that run decoded, and flushing makes the next run decode it all again.
    #[test]
    fn flush_makes_the_next_run_cold() {
        let mut env = ManagedExecutionEnvironment::new(double_program(), EnvConfig::default());
        let cold = env.run(&[1]).stats.blocks_built;
        assert!(cold >= 3);
        assert_eq!(env.run(&[1]).stats.blocks_built, 0);
        env.flush_cache();
        assert_eq!(env.run(&[1]).stats.blocks_built, cold);
    }

    /// Fetching is total: an address that does not decode — in the middle of the code
    /// segment, on either environment shape — is an invalid-instruction crash there.
    #[test]
    fn an_undecodable_address_inside_the_code_crashes_the_guest() {
        let mut b = ProgramBuilder::new();
        let main = b.new_label("main");
        b.bind(main);
        b.input(Reg::Eax, Port::Input);
        b.jmp_indirect(Reg::Eax);
        // An operand word no opcode matches, reached by jumping into the instruction.
        let mov = b.mov(Reg::Ebx, 0xFFFF_FFFFu32);
        b.halt();
        b.set_entry(main);
        let image = b.build().unwrap();
        let program = crate::shared::SharedProgram::new(image.clone());
        let bad = (mov..image.code_end())
            .find(|&a| CodeCache::build_block(&image, a).is_err())
            .expect("an address that does not decode");
        for mut env in [
            ManagedExecutionEnvironment::new(image.clone(), EnvConfig::default()),
            ManagedExecutionEnvironment::with_shared(&program, EnvConfig::default()),
        ] {
            assert!(env.run(&[mov]).is_completed());
            let r = env.run(&[bad]);
            assert_eq!(
                r.status,
                RunStatus::Crash(CrashInfo {
                    kind: CrashKind::InvalidInstruction { addr: bad },
                    location: bad,
                })
            );
        }
    }

    /// The guest is out of the environment while a run is on it: a hook that panics
    /// takes it down with the run, and the next run builds a new one rather than
    /// resetting a machine that stopped half-way through an instruction.
    #[test]
    fn a_panicking_hook_costs_the_environment_its_guest_and_nothing_else() {
        struct Bomb;
        impl Hook for Bomb {
            fn on_execute(&mut self, ctx: &mut HookContext<'_>) -> HookAction {
                ctx.machine.set_reg(Reg::Eax, 999);
                panic!("hook bug");
            }
        }
        let (envs, add_addr) = double_envs();
        for mut env in envs {
            assert!(env.guest.is_none());
            assert_eq!(env.run(&[21]).rendered, vec![42]);
            assert!(env.guest.is_some());
            let bomb = env.apply_hook(add_addr, Box::new(Bomb));
            let run = std::panic::AssertUnwindSafe(|| env.run(&[1]));
            assert!(std::panic::catch_unwind(run).is_err());
            assert!(env.guest.is_none());
            env.remove_hook(bomb).unwrap();
            let r = env.run(&[4]);
            assert!(r.is_completed());
            assert_eq!(r.rendered, vec![8]);
            assert!(env.guest.is_some());
        }
    }

    #[test]
    fn cumulative_stats_accumulate_across_runs() {
        let mut env = ManagedExecutionEnvironment::new(double_program(), EnvConfig::default());
        env.run(&[1]);
        env.run(&[2]);
        let c = env.cumulative_stats();
        assert_eq!(c.runs, 2);
        assert!(c.instructions > 10);
        env.reset_cumulative_stats();
        assert_eq!(env.cumulative_stats().runs, 0);
    }
}
