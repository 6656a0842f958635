//! The guest machine: registers, flags, memory, heap, and I/O ports.
//!
//! The machine executes *data* instructions (moves, arithmetic, allocation, copies,
//! I/O). Control-flow instructions are executed by the
//! [`crate::env::ManagedExecutionEnvironment`], which needs to interpose the Memory
//! Firewall and the Shadow Stack on every transfer.
//!
//! A machine serves one run at a time and any number in turn. [`Machine::reset`] is the
//! initialiser: the constructors build an empty machine and put it through the very
//! `reset` that an environment calls between runs, so "a machine that was used and
//! reset" and "a machine that was just built" are one code path and cannot drift apart.

use crate::error::CrashKind;
use crate::heap::{HeapAllocator, CANARY};
use crate::memory::Memory;
use cv_isa::{
    Addr, BinaryImage, Flags, Inst, MemRef, MemoryLayout, Operand, Port, Reg, Segment, Word,
};

/// The ALU operations — each a value, a carry and a signed overflow — shared by
/// [`Machine::exec_data_inst`] and the environment's block loop, so that the two
/// cannot disagree on a flag.
pub(crate) mod alu {
    use cv_isa::Word;

    /// `add`.
    #[inline]
    pub(crate) fn add(a: Word, b: Word) -> (Word, bool, bool) {
        let (r, c) = a.overflowing_add(b);
        let (_, o) = (a as i32).overflowing_add(b as i32);
        (r, c, o)
    }

    /// `sub`.
    #[inline]
    pub(crate) fn sub(a: Word, b: Word) -> (Word, bool, bool) {
        let (r, c) = a.overflowing_sub(b);
        let (_, o) = (a as i32).overflowing_sub(b as i32);
        (r, c, o)
    }

    /// `and`.
    #[inline]
    pub(crate) fn and(a: Word, b: Word) -> (Word, bool, bool) {
        (a & b, false, false)
    }

    /// `or`.
    #[inline]
    pub(crate) fn or(a: Word, b: Word) -> (Word, bool, bool) {
        (a | b, false, false)
    }

    /// `xor`.
    #[inline]
    pub(crate) fn xor(a: Word, b: Word) -> (Word, bool, bool) {
        (a ^ b, false, false)
    }

    /// `shl`: the amount is taken mod 32.
    #[inline]
    pub(crate) fn shl(a: Word, b: Word) -> (Word, bool, bool) {
        (a.wrapping_shl(b & 31), false, false)
    }

    /// `shr` (logical): the amount is taken mod 32.
    #[inline]
    pub(crate) fn shr(a: Word, b: Word) -> (Word, bool, bool) {
        (a.wrapping_shr(b & 31), false, false)
    }
}

/// A fault raised by a memory access or data instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemFault {
    /// The guest crashed (unmapped access, code write, stack fault, ...).
    Crash(CrashKind),
    /// Heap Guard detected an out-of-bounds heap write at `addr`.
    HeapGuardViolation {
        /// The heap address whose canary was about to be overwritten.
        addr: Addr,
    },
}

impl From<CrashKind> for MemFault {
    fn from(c: CrashKind) -> Self {
        MemFault::Crash(c)
    }
}

/// The result of executing a `copy` intrinsic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CopyOutcome {
    /// Words actually copied.
    pub copied: u64,
    /// True if the copy stopped early because it reached unwritable memory. This models
    /// the fault boundary that ends a runaway `memcpy` in the real system; execution
    /// continues afterwards, typically with corrupted state that a monitor catches at
    /// the next control transfer.
    pub clamped: bool,
}

/// The guest CPU, memory, heap, and I/O state of one run at a time.
#[derive(Debug, Clone)]
pub struct Machine {
    regs: [Word; 8],
    /// Condition flags.
    pub flags: Flags,
    /// The instruction pointer.
    pub eip: Addr,
    mem: Memory,
    heap: HeapAllocator,
    heap_guard_enabled: bool,
    input: Vec<Word>,
    input_pos: usize,
    render_output: Vec<Word>,
    debug_output: Vec<Word>,
    /// Number of Heap Guard canary comparisons performed (cost model).
    pub heap_guard_checks: u64,
}

impl Machine {
    /// Create a machine with `image` loaded, the given input stream, and Heap Guard
    /// enabled or not.
    pub fn new(image: &BinaryImage, input: Vec<Word>, heap_guard_enabled: bool) -> Machine {
        Self::over(Memory::new(image.layout), image, &input, heap_guard_enabled)
    }

    /// Create a machine whose address space reads from a shared pristine base (see
    /// [`Memory::cow`]) — behaviourally identical to [`Machine::new`], without
    /// materialising even the image's own pages.
    pub fn with_cow(
        image: &BinaryImage,
        base: std::sync::Arc<[Word]>,
        input: Vec<Word>,
        heap_guard_enabled: bool,
    ) -> Machine {
        let mem = Memory::cow(image.layout, base);
        Self::over(mem, image, &input, heap_guard_enabled)
    }

    /// A machine over the not yet initialised `mem`: empty, then reset. What the fields
    /// hold before that first [`Machine::reset`] is never observed.
    fn over(mem: Memory, image: &BinaryImage, input: &[Word], heap_guard_enabled: bool) -> Machine {
        let mut machine = Machine {
            regs: [0; 8],
            flags: Flags::default(),
            eip: 0,
            mem,
            heap: HeapAllocator::new(image.layout),
            heap_guard_enabled: false,
            input: Vec::new(),
            input_pos: 0,
            render_output: Vec::new(),
            debug_output: Vec::new(),
            heap_guard_checks: 0,
        };
        machine.reset(image, input, heap_guard_enabled);
        machine
    }

    /// Start over on `input`: the state a machine is created in, whatever the last run
    /// left behind (module docs). `image` must be the one the machine was created for.
    /// Costs the pages the last run owned (see [`Memory`]); every buffer keeps its
    /// capacity.
    pub(crate) fn reset(&mut self, image: &BinaryImage, input: &[Word], heap_guard_enabled: bool) {
        self.regs = [0; 8];
        self.regs[Reg::Esp.index()] = image.layout.initial_sp();
        self.flags = Flags::default();
        self.eip = image.entry;
        self.mem.reset(image);
        self.heap.reset();
        self.heap_guard_enabled = heap_guard_enabled;
        self.input.clear();
        self.input.extend_from_slice(input);
        self.input_pos = 0;
        self.render_output.clear();
        self.debug_output.clear();
        self.heap_guard_checks = 0;
    }

    /// The guest address-space layout.
    pub fn layout(&self) -> MemoryLayout {
        self.mem.layout()
    }

    /// Whether Heap Guard write checks are active.
    pub fn heap_guard_enabled(&self) -> bool {
        self.heap_guard_enabled
    }

    /// Read a register.
    #[inline]
    pub fn reg(&self, r: Reg) -> Word {
        self.regs[r.index()]
    }

    /// Write a register.
    #[inline]
    pub fn set_reg(&mut self, r: Reg, v: Word) {
        self.regs[r.index()] = v;
    }

    /// `op` of register `dst` and `b`, written back to `dst`, with the flags set from it.
    #[inline]
    pub(crate) fn reg_op(
        &mut self,
        dst: Reg,
        b: Word,
        op: impl Fn(Word, Word) -> (Word, bool, bool),
    ) {
        let (r, carry, overflow) = op(self.reg(dst), b);
        self.flags = Flags::from_result(r, carry, overflow);
        self.set_reg(dst, r);
    }

    /// The words rendered to the output port so far.
    pub fn render_output(&self) -> &[Word] {
        &self.render_output
    }

    /// The words written to the debug port so far.
    pub fn debug_output(&self) -> &[Word] {
        &self.debug_output
    }

    /// Move out the words written to the render and debug ports; the machine keeps none.
    pub fn take_outputs(&mut self) -> (Vec<Word>, Vec<Word>) {
        (
            std::mem::take(&mut self.render_output),
            std::mem::take(&mut self.debug_output),
        )
    }

    /// Hand the pages the run wrote back to the memory's spare list, so that what a
    /// finished run holds on to until the next [`Machine::reset`] is bounded.
    pub(crate) fn release_pages(&mut self) {
        self.mem.release();
    }

    /// The guest memory, read-only (diagnostics and tests).
    pub fn memory(&self) -> &Memory {
        &self.mem
    }

    /// Number of live heap allocations (diagnostics).
    pub fn live_allocations(&self) -> usize {
        self.heap.live_count()
    }

    /// Compute the effective address of a memory reference.
    #[inline]
    pub fn effective_addr(&self, m: &MemRef) -> Addr {
        let mut addr = m.disp as u32;
        if let Some(b) = m.base {
            addr = addr.wrapping_add(self.reg(b));
        }
        if let Some(i) = m.index {
            addr = addr.wrapping_add(self.reg(i).wrapping_mul(m.scale.max(1) as u32));
        }
        addr
    }

    /// Read a word of guest memory.
    #[inline]
    pub fn read_mem(&self, addr: Addr) -> Result<Word, MemFault> {
        self.mem.read(addr).map_err(MemFault::from)
    }

    /// Write a word of guest memory, applying the Heap Guard check when enabled.
    ///
    /// One classification of `addr` decides everything: unmapped and code words crash
    /// (W^X), a heap word under Heap Guard is written only if it passes the canary test,
    /// and any other word is written.
    #[inline(always)]
    pub fn write_mem(&mut self, addr: Addr, value: Word) -> Result<(), MemFault> {
        match self.mem.layout().segment_of(addr) {
            Segment::Unmapped => Err(CrashKind::UnmappedAccess { addr }.into()),
            Segment::Code => Err(CrashKind::CodeWrite { addr }.into()),
            Segment::Heap if self.heap_guard_enabled => self.guarded_heap_write(addr, value),
            Segment::Data | Segment::Heap | Segment::Stack => {
                self.mem.write_raw(addr, value);
                Ok(())
            }
        }
    }

    /// Heap Guard: a write that would overwrite a canary word is out of bounds unless
    /// the address is inside some live allocation (the application may legitimately
    /// have written the canary value itself).
    fn guarded_heap_write(&mut self, addr: Addr, value: Word) -> Result<(), MemFault> {
        self.heap_guard_checks += 1;
        if self.mem.read_raw(addr) == CANARY && !self.heap.is_within_live_allocation(addr) {
            return Err(MemFault::HeapGuardViolation { addr });
        }
        self.mem.write_raw(addr, value);
        Ok(())
    }

    /// Read the value of an operand. Immediate and register reads cannot fault.
    #[inline]
    pub fn read_operand(&self, op: &Operand) -> Result<Word, MemFault> {
        match op {
            Operand::Reg(r) => Ok(self.reg(*r)),
            Operand::Imm(v) => Ok(*v),
            Operand::Mem(m) => self.read_mem(self.effective_addr(m)),
        }
    }

    /// Write the value of a writable operand.
    ///
    /// Writing an immediate operand is a host-side bug; it is reported as an invalid
    /// instruction crash at the current `eip` rather than panicking.
    #[inline]
    pub fn write_operand(&mut self, op: &Operand, value: Word) -> Result<(), MemFault> {
        match op {
            Operand::Reg(r) => {
                self.set_reg(*r, value);
                Ok(())
            }
            Operand::Imm(_) => Err(MemFault::Crash(CrashKind::InvalidInstruction {
                addr: self.eip,
            })),
            Operand::Mem(m) => self.write_mem(self.effective_addr(m), value),
        }
    }

    /// Push a word onto the guest stack.
    ///
    /// Forced inline, as are `pop` and `write_mem`: the environment's block loop
    /// measured 4–8% faster on `host_heavy` with them in it.
    #[inline(always)]
    pub fn push(&mut self, value: Word) -> Result<(), MemFault> {
        let sp = self.reg(Reg::Esp).wrapping_sub(1);
        if self.mem.layout().segment_of(sp) != Segment::Stack {
            return Err(MemFault::Crash(CrashKind::StackFault { sp }));
        }
        self.set_reg(Reg::Esp, sp);
        // A stack word: mapped, not code and not heap, so nothing else to decide.
        self.mem.write_raw(sp, value);
        Ok(())
    }

    /// Pop a word off the guest stack.
    #[inline(always)]
    pub fn pop(&mut self) -> Result<Word, MemFault> {
        let sp = self.reg(Reg::Esp);
        if self.mem.layout().segment_of(sp) != Segment::Stack {
            return Err(MemFault::Crash(CrashKind::StackFault { sp }));
        }
        let v = self.mem.read_raw(sp);
        self.set_reg(Reg::Esp, sp.wrapping_add(1));
        Ok(v)
    }

    /// Allocate guest heap memory. Returns the user address.
    pub fn heap_alloc(&mut self, size: u32) -> Result<Addr, MemFault> {
        self.heap.alloc(&mut self.mem, size).map_err(MemFault::from)
    }

    /// Free guest heap memory.
    pub fn heap_free(&mut self, addr: Addr) -> Result<(), MemFault> {
        self.heap.free(addr).map_err(MemFault::from)
    }

    /// Read the next input word (0 when the input stream is exhausted).
    pub fn port_in(&mut self, port: Port) -> Word {
        match port {
            Port::Input => {
                let v = self.input.get(self.input_pos).copied().unwrap_or(0);
                self.input_pos += 1;
                v
            }
            // Reading from output ports yields 0; kept total for robustness.
            Port::Render | Port::Debug => 0,
        }
    }

    /// Write a word to an output port.
    pub fn port_out(&mut self, port: Port, value: Word) {
        match port {
            Port::Render => self.render_output.push(value),
            Port::Debug => self.debug_output.push(value),
            Port::Input => {}
        }
    }

    /// Words of input remaining.
    pub fn input_remaining(&self) -> usize {
        self.input.len().saturating_sub(self.input_pos)
    }

    /// Execute the `copy` intrinsic: copy up to `len` words from `src` to `dst`.
    ///
    /// The copy stops early (without crashing) when it reaches memory that cannot be
    /// written (unmapped space or the code segment) or read; this models the fault
    /// boundary that terminates a runaway `memcpy` in the real system. Heap Guard
    /// violations abort the copy and are reported to the caller.
    pub fn copy_words(&mut self, dst: Addr, src: Addr, len: u64) -> Result<CopyOutcome, MemFault> {
        let mut copied = 0u64;
        while copied < len {
            let s = src.wrapping_add(copied as u32);
            let d = dst.wrapping_add(copied as u32);
            let value = match self.read_mem(s) {
                Ok(v) => v,
                Err(MemFault::Crash(_)) => {
                    return Ok(CopyOutcome {
                        copied,
                        clamped: true,
                    })
                }
                Err(e) => return Err(e),
            };
            match self.write_mem(d, value) {
                Ok(()) => {}
                Err(MemFault::Crash(CrashKind::UnmappedAccess { .. }))
                | Err(MemFault::Crash(CrashKind::CodeWrite { .. })) => {
                    return Ok(CopyOutcome {
                        copied,
                        clamped: true,
                    })
                }
                Err(e) => return Err(e),
            }
            copied += 1;
        }
        Ok(CopyOutcome {
            copied,
            clamped: false,
        })
    }

    /// Execute a non-control-flow instruction.
    ///
    /// # Panics
    ///
    /// Never panics; control-flow instructions passed here are reported as invalid
    /// instruction crashes (they are the environment's responsibility).
    pub fn exec_data_inst(&mut self, inst: &Inst) -> Result<(), MemFault> {
        match *inst {
            Inst::Mov { dst, src } => {
                let v = self.read_operand(&src)?;
                self.write_operand(&dst, v)
            }
            Inst::Lea { dst, mem } => {
                let addr = self.effective_addr(&mem);
                self.set_reg(dst, addr);
                Ok(())
            }
            Inst::Add { dst, src } => self.binop(dst, src, alu::add),
            Inst::Sub { dst, src } => self.binop(dst, src, alu::sub),
            Inst::Mul { dst, src } => {
                let a = self.reg(dst);
                let b = self.read_operand(&src)?;
                let (r, o) = (a as i32).overflowing_mul(b as i32);
                self.set_reg(dst, r as u32);
                self.flags = Flags::from_result(r as u32, o, o);
                Ok(())
            }
            Inst::And { dst, src } => self.binop(dst, src, alu::and),
            Inst::Or { dst, src } => self.binop(dst, src, alu::or),
            Inst::Xor { dst, src } => self.binop(dst, src, alu::xor),
            Inst::Shl { dst, src } => self.binop(dst, src, alu::shl),
            Inst::Shr { dst, src } => self.binop(dst, src, alu::shr),
            Inst::Cmp { a, b } => {
                let av = self.read_operand(&a)?;
                let bv = self.read_operand(&b)?;
                self.flags = Flags::from_cmp(av, bv);
                Ok(())
            }
            Inst::Test { a, b } => {
                let av = self.read_operand(&a)?;
                let bv = self.read_operand(&b)?;
                self.flags = Flags::from_result(av & bv, false, false);
                Ok(())
            }
            Inst::Push { src } => {
                let v = self.read_operand(&src)?;
                self.push(v)
            }
            Inst::Pop { dst } => {
                let v = self.pop()?;
                self.write_operand(&dst, v)
            }
            Inst::Alloc { size, dst } => {
                let sz = self.read_operand(&size)?;
                let addr = self.heap_alloc(sz)?;
                self.set_reg(dst, addr);
                Ok(())
            }
            Inst::Free { ptr } => {
                let p = self.read_operand(&ptr)?;
                self.heap_free(p)
            }
            Inst::Copy { dst, src, len } => {
                let d = self.read_operand(&dst)?;
                let s = self.read_operand(&src)?;
                let l = self.read_operand(&len)?;
                // memcpy semantics: the length is unsigned.
                self.copy_words(d, s, l as u64).map(|_| ())
            }
            Inst::In { dst, port } => {
                let v = self.port_in(port);
                self.set_reg(dst, v);
                Ok(())
            }
            Inst::Out { src, port } => {
                let v = self.read_operand(&src)?;
                self.port_out(port, v);
                Ok(())
            }
            Inst::Nop => Ok(()),
            // Control flow and halt are the environment's responsibility.
            Inst::Jmp { .. }
            | Inst::JmpIndirect { .. }
            | Inst::Jcc { .. }
            | Inst::Call { .. }
            | Inst::CallIndirect { .. }
            | Inst::Ret
            | Inst::Halt => Err(MemFault::Crash(CrashKind::InvalidInstruction {
                addr: self.eip,
            })),
        }
    }

    fn binop(
        &mut self,
        dst: Operand,
        src: Operand,
        op: impl Fn(Word, Word) -> (Word, bool, bool),
    ) -> Result<(), MemFault> {
        let a = self.read_operand(&dst)?;
        let b = self.read_operand(&src)?;
        let (r, carry, overflow) = op(a, b);
        self.flags = Flags::from_result(r, carry, overflow);
        self.write_operand(&dst, r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cv_isa::ProgramBuilder;

    fn image() -> BinaryImage {
        let mut b = ProgramBuilder::new();
        let main = b.function("main");
        b.halt();
        b.set_entry(main);
        b.build().unwrap()
    }

    fn machine() -> Machine {
        Machine::new(&image(), vec![10, 20, 30], true)
    }

    #[test]
    fn initial_state() {
        let m = machine();
        assert_eq!(m.reg(Reg::Esp), m.layout().initial_sp());
        assert_eq!(m.eip, image().entry);
        assert_eq!(m.reg(Reg::Eax), 0);
    }

    /// Everything of a machine that a run or a hook can read.
    fn observable(m: &Machine) -> impl PartialEq + std::fmt::Debug {
        (
            (m.regs, m.flags, m.eip, m.heap_guard_enabled()),
            m.memory().read_slice(0, m.memory().len()).unwrap(),
            (m.live_allocations(), m.heap.alloc_count, m.heap.free_count),
            (m.input.clone(), m.input_remaining()),
            (m.render_output().to_vec(), m.debug_output().to_vec()),
            m.heap_guard_checks,
        )
    }

    /// A machine that has been through a run is, once reset, the machine `new` builds —
    /// under the other Heap Guard setting and on another input too — and goes on to
    /// allocate where a new one does.
    #[test]
    fn reset_returns_a_used_machine_to_what_new_produces() {
        let image = image();
        let base: std::sync::Arc<[Word]> = {
            let mem = Memory::load(&image);
            mem.read_slice(0, mem.len()).unwrap().into()
        };
        for mut m in [
            Machine::new(&image, vec![10, 20, 30], true),
            Machine::with_cow(&image, base, vec![10, 20, 30], true),
        ] {
            let p = m.heap_alloc(4).unwrap();
            m.heap_alloc(9).unwrap();
            m.heap_free(p).unwrap();
            m.write_mem(p, 77).unwrap();
            m.write_mem(image.layout.data_base, 78).unwrap();
            m.push(79).unwrap();
            m.set_reg(Reg::Ebx, 80);
            m.flags = Flags::from_cmp(1, 2);
            m.eip += 1;
            m.port_in(Port::Input);
            m.port_out(Port::Render, 81);
            m.port_out(Port::Debug, 82);
            assert!(m.heap_guard_checks > 0);

            m.reset(&image, &[5, 6], false);
            let mut fresh = Machine::new(&image, vec![5, 6], false);
            assert_eq!(observable(&m), observable(&fresh));
            assert_eq!(m.heap_alloc(4), fresh.heap_alloc(4));
            assert_eq!(m.heap_alloc(9), fresh.heap_alloc(9));
        }
    }

    #[test]
    fn mov_and_arithmetic() {
        let mut m = machine();
        m.exec_data_inst(&Inst::Mov {
            dst: Operand::Reg(Reg::Eax),
            src: Operand::Imm(5),
        })
        .unwrap();
        m.exec_data_inst(&Inst::Add {
            dst: Operand::Reg(Reg::Eax),
            src: Operand::Imm(7),
        })
        .unwrap();
        assert_eq!(m.reg(Reg::Eax), 12);
        m.exec_data_inst(&Inst::Sub {
            dst: Operand::Reg(Reg::Eax),
            src: Operand::Imm(12),
        })
        .unwrap();
        assert_eq!(m.reg(Reg::Eax), 0);
        assert!(m.flags.zero);
    }

    #[test]
    fn push_pop_round_trip() {
        let mut m = machine();
        m.push(111).unwrap();
        m.push(222).unwrap();
        assert_eq!(m.pop().unwrap(), 222);
        assert_eq!(m.pop().unwrap(), 111);
        assert_eq!(m.reg(Reg::Esp), m.layout().initial_sp());
    }

    #[test]
    fn pop_from_empty_stack_is_a_stack_fault() {
        let mut m = machine();
        assert!(matches!(
            m.pop(),
            Err(MemFault::Crash(CrashKind::StackFault { .. }))
        ));
    }

    #[test]
    fn lea_computes_address_without_access() {
        let mut m = machine();
        m.set_reg(Reg::Ebx, 100);
        m.set_reg(Reg::Ecx, 3);
        m.exec_data_inst(&Inst::Lea {
            dst: Reg::Esi,
            mem: MemRef::indexed(Reg::Ebx, Reg::Ecx, 4, 2),
        })
        .unwrap();
        assert_eq!(m.reg(Reg::Esi), 100 + 3 * 4 + 2);
    }

    #[test]
    fn heap_alloc_and_heap_guard_violation() {
        let mut m = machine();
        let p = m.heap_alloc(4).unwrap();
        // In-bounds writes are fine.
        m.write_mem(p, 1).unwrap();
        m.write_mem(p + 3, 2).unwrap();
        // Overwriting the trailing canary is an out-of-bounds write.
        let err = m.write_mem(p + 4, 0x41).unwrap_err();
        assert_eq!(err, MemFault::HeapGuardViolation { addr: p + 4 });
        assert!(m.heap_guard_checks > 0);
    }

    #[test]
    fn heap_guard_disabled_allows_overflow() {
        let mut m = Machine::new(&image(), vec![], false);
        let p = m.heap_alloc(4).unwrap();
        // Without Heap Guard the canary is silently clobbered.
        m.write_mem(p + 4, 0x41).unwrap();
        assert_eq!(m.read_mem(p + 4).unwrap(), 0x41);
    }

    #[test]
    fn legitimate_canary_value_inside_allocation_is_allowed() {
        let mut m = machine();
        let p = m.heap_alloc(4).unwrap();
        // The application writes the canary value itself, inside bounds...
        m.write_mem(p + 1, CANARY).unwrap();
        // ...and then overwrites it again: allocation map check passes.
        m.write_mem(p + 1, 7).unwrap();
        assert_eq!(m.read_mem(p + 1).unwrap(), 7);
    }

    #[test]
    fn copy_clamps_at_unwritable_memory() {
        let mut m = Machine::new(&image(), vec![], false);
        let layout = m.layout();
        let src = m.heap_alloc(8).unwrap();
        for i in 0..8 {
            m.write_mem(src + i, 0x41 + i).unwrap();
        }
        // Destination near the very top of the stack: a huge length clamps at the end
        // of the stack segment instead of crashing.
        let dst = layout.stack_end() - 4;
        let out = m.copy_words(dst, src, u32::MAX as u64).unwrap();
        assert!(out.clamped);
        assert_eq!(out.copied, 4);
        assert_eq!(m.read_mem(dst).unwrap(), 0x41);
    }

    #[test]
    fn copy_reports_heap_guard_violation() {
        let mut m = machine();
        let dst = m.heap_alloc(2).unwrap();
        let src = m.heap_alloc(8).unwrap();
        for i in 0..8 {
            m.write_mem(src + i, i).unwrap();
        }
        let err = m.copy_words(dst, src, 8).unwrap_err();
        assert!(matches!(err, MemFault::HeapGuardViolation { .. }));
    }

    #[test]
    fn input_port_reads_sequentially_and_pads_with_zero() {
        let mut m = machine();
        assert_eq!(m.port_in(Port::Input), 10);
        assert_eq!(m.port_in(Port::Input), 20);
        assert_eq!(m.port_in(Port::Input), 30);
        assert_eq!(m.port_in(Port::Input), 0);
        assert_eq!(m.input_remaining(), 0);
    }

    #[test]
    fn output_ports_accumulate() {
        let mut m = machine();
        m.port_out(Port::Render, 1);
        m.port_out(Port::Render, 2);
        m.port_out(Port::Debug, 9);
        assert_eq!(m.render_output(), &[1, 2]);
        assert_eq!(m.debug_output(), &[9]);
    }

    #[test]
    fn control_flow_in_exec_data_inst_is_rejected() {
        let mut m = machine();
        assert!(m.exec_data_inst(&Inst::Ret).is_err());
        assert!(m.exec_data_inst(&Inst::Halt).is_err());
    }

    #[test]
    fn write_to_immediate_is_reported_not_panicked() {
        let mut m = machine();
        assert!(m.write_operand(&Operand::Imm(3), 5).is_err());
    }
}
