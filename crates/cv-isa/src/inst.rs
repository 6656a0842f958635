//! The instruction set of the simulated machine.

use crate::{Addr, MemRef, Operand, Reg};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Conditions for conditional jumps, mirroring the x86 `jcc` family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Cond {
    /// Jump if equal (`zero`).
    Eq,
    /// Jump if not equal (`!zero`).
    Ne,
    /// Jump if signed less-than (`sign != overflow`).
    Lt,
    /// Jump if signed less-or-equal.
    Le,
    /// Jump if signed greater-than.
    Gt,
    /// Jump if signed greater-or-equal.
    Ge,
    /// Jump if unsigned below (`carry`).
    Below,
    /// Jump if unsigned above-or-equal (`!carry`).
    AboveEq,
}

impl Cond {
    /// All conditions, in encoding order.
    pub const ALL: [Cond; 8] = [
        Cond::Eq,
        Cond::Ne,
        Cond::Lt,
        Cond::Le,
        Cond::Gt,
        Cond::Ge,
        Cond::Below,
        Cond::AboveEq,
    ];

    /// Encoding index.
    pub fn index(self) -> usize {
        Cond::ALL
            .iter()
            .position(|c| *c == self)
            .expect("cond in ALL")
    }

    /// Decode from encoding index.
    pub fn from_index(idx: usize) -> Option<Cond> {
        Cond::ALL.get(idx).copied()
    }

    /// Evaluate the condition against a set of flags.
    // Forced inline: the run loops branch on it at every `jcc`, and with a plain
    // `#[inline]` it stayed a call there.
    #[inline(always)]
    pub fn eval(self, flags: crate::Flags) -> bool {
        let lt = flags.sign != flags.overflow;
        match self {
            Cond::Eq => flags.zero,
            Cond::Ne => !flags.zero,
            Cond::Lt => lt,
            Cond::Le => lt || flags.zero,
            Cond::Gt => !lt && !flags.zero,
            Cond::Ge => !lt,
            Cond::Below => flags.carry,
            Cond::AboveEq => !flags.carry,
        }
    }

    /// Mnemonic suffix (`e`, `ne`, `l`, ...).
    pub fn mnemonic(self) -> &'static str {
        match self {
            Cond::Eq => "e",
            Cond::Ne => "ne",
            Cond::Lt => "l",
            Cond::Le => "le",
            Cond::Gt => "g",
            Cond::Ge => "ge",
            Cond::Below => "b",
            Cond::AboveEq => "ae",
        }
    }
}

/// Ports used by the I/O intrinsics. The guest browser reads "page" words from
/// [`Port::Input`] and renders output words to [`Port::Render`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Port {
    /// The input stream (the bytes of the web page being processed).
    Input,
    /// The rendered output stream (the "display" compared for autoimmune evaluation).
    Render,
    /// Diagnostic output used by tests.
    Debug,
}

impl Port {
    /// All ports, in encoding order.
    pub const ALL: [Port; 3] = [Port::Input, Port::Render, Port::Debug];

    /// Encoding index.
    pub fn index(self) -> usize {
        Port::ALL
            .iter()
            .position(|p| *p == self)
            .expect("port in ALL")
    }

    /// Decode from encoding index.
    pub fn from_index(idx: usize) -> Option<Port> {
        Port::ALL.get(idx).copied()
    }
}

/// A machine instruction.
///
/// The arithmetic/move/control subset mirrors 32-bit x86. The `Alloc`, `Free`, and
/// `Copy` intrinsics model the C runtime allocator and `memcpy`: the real ClearView
/// deployment intercepts these at the binary level (Heap Guard wraps the allocator and
/// instruments heap writes); modelling them as intrinsic instructions gives the runtime
/// the same interception points without an FFI to a real instrumentation framework.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Inst {
    /// `mov dst, src`.
    Mov {
        /// Destination (register or memory).
        dst: Operand,
        /// Source.
        src: Operand,
    },
    /// `lea dst, [mem]` — compute the address of `mem` without accessing memory.
    Lea {
        /// Destination register.
        dst: Reg,
        /// Address expression.
        mem: MemRef,
    },
    /// `add dst, src` (wrapping).
    Add {
        /// Destination (register or memory).
        dst: Operand,
        /// Source.
        src: Operand,
    },
    /// `sub dst, src` (wrapping).
    Sub {
        /// Destination (register or memory).
        dst: Operand,
        /// Source.
        src: Operand,
    },
    /// `imul dst, src` (wrapping signed multiply).
    Mul {
        /// Destination register.
        dst: Reg,
        /// Source.
        src: Operand,
    },
    /// `and dst, src`.
    And {
        /// Destination (register or memory).
        dst: Operand,
        /// Source.
        src: Operand,
    },
    /// `or dst, src`.
    Or {
        /// Destination (register or memory).
        dst: Operand,
        /// Source.
        src: Operand,
    },
    /// `xor dst, src`.
    Xor {
        /// Destination (register or memory).
        dst: Operand,
        /// Source.
        src: Operand,
    },
    /// `shl dst, amount`.
    Shl {
        /// Destination (register or memory).
        dst: Operand,
        /// Shift amount.
        src: Operand,
    },
    /// `shr dst, amount` (logical).
    Shr {
        /// Destination (register or memory).
        dst: Operand,
        /// Shift amount.
        src: Operand,
    },
    /// `cmp a, b` — set flags from `a - b`.
    Cmp {
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
    },
    /// `test a, b` — set flags from `a & b`.
    Test {
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
    },
    /// `jmp addr` — unconditional direct jump.
    Jmp {
        /// Target address.
        target: Addr,
    },
    /// `jmp *op` — unconditional indirect jump.
    JmpIndirect {
        /// Operand holding the target address.
        target: Operand,
    },
    /// `jcc addr` — conditional direct jump.
    Jcc {
        /// Condition.
        cond: Cond,
        /// Target address.
        target: Addr,
    },
    /// `call addr` — direct call; pushes the return address.
    Call {
        /// Target address.
        target: Addr,
    },
    /// `call *op` — indirect call; pushes the return address.
    ///
    /// Indirect calls through corrupted function pointers are the control-flow attack
    /// vector exercised by most of the Red Team exploits.
    CallIndirect {
        /// Operand holding the target address.
        target: Operand,
    },
    /// `ret` — pop the return address and jump to it.
    Ret,
    /// `push src`.
    Push {
        /// Value pushed.
        src: Operand,
    },
    /// `pop dst`.
    Pop {
        /// Destination (register or memory).
        dst: Operand,
    },
    /// Allocate `size` words on the guest heap; the block address is placed in `dst`.
    ///
    /// Stands in for `malloc`, which Heap Guard wraps in the real system.
    Alloc {
        /// Requested size in words.
        size: Operand,
        /// Register receiving the block address (0 on failure).
        dst: Reg,
    },
    /// Free the heap block whose address is in `ptr`. Stands in for `free`.
    Free {
        /// Block address.
        ptr: Operand,
    },
    /// Copy `len` words from `src` to `dst`, word by word, through the normal memory
    /// write path (so Heap Guard observes every write). Stands in for `memcpy`.
    ///
    /// `len` is treated as **unsigned**, exactly like the `memcpy` length parameter —
    /// this is what turns a negative computed length into a huge copy in exploit
    /// 296134 and the buffer-growth overflow in 325403.
    Copy {
        /// Destination start address.
        dst: Operand,
        /// Source start address.
        src: Operand,
        /// Number of words to copy (unsigned).
        len: Operand,
    },
    /// Read the next word from an input port into `dst`; writes 0 when exhausted.
    In {
        /// Destination register.
        dst: Reg,
        /// Port to read from.
        port: Port,
    },
    /// Write a word to an output port.
    Out {
        /// Value written.
        src: Operand,
        /// Port to write to.
        port: Port,
    },
    /// Stop execution successfully.
    Halt,
    /// No operation.
    Nop,
}

/// A fixed-capacity, stack-allocated list of up to `N` copyable items.
///
/// The trace front end queries [`Inst::operands_read`] and [`Inst::mem_refs`] once per
/// *executed* instruction — the hottest loop in learning mode. Returning a `Vec` there
/// heap-allocates per event; an `InlineList` lives entirely in registers/stack. No
/// instruction reads more than three operands or computes more than three addresses,
/// so `N = 3` covers the whole instruction set (checked by `debug_assert` on push).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InlineList<T, const N: usize> {
    items: [T; N],
    len: u8,
}

impl<T: Copy, const N: usize> InlineList<T, N> {
    /// The fixed capacity `N` — exposed so downstream tables sized per slot (the
    /// inference engine's schedules) stay in sync with the instruction set by
    /// construction.
    pub const CAPACITY: usize = N;

    /// An empty list; `fill` pads the unused tail (it is never observable).
    pub fn new(fill: T) -> Self {
        InlineList {
            items: [fill; N],
            len: 0,
        }
    }

    /// Append an item. Panics in debug builds if the capacity is exceeded.
    pub fn push(&mut self, item: T) {
        debug_assert!((self.len as usize) < N, "InlineList capacity exceeded");
        self.items[self.len as usize] = item;
        self.len += 1;
    }

    /// The populated prefix as a slice.
    pub fn as_slice(&self) -> &[T] {
        &self.items[..self.len as usize]
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True if the list holds no items.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<T: Copy, const N: usize> std::ops::Deref for InlineList<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Copy, const N: usize> IntoIterator for InlineList<T, N> {
    type Item = T;
    type IntoIter = std::iter::Take<std::array::IntoIter<T, N>>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter().take(self.len as usize)
    }
}

impl<'a, T: Copy, const N: usize> IntoIterator for &'a InlineList<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// The read operands of one instruction (at most three).
pub type ReadOperands = InlineList<Operand, 3>;

/// The memory references of one instruction (at most three).
pub type MemRefs = InlineList<MemRef, 3>;

impl Inst {
    /// A short mnemonic used in disassembly listings and patch reports.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Inst::Mov { .. } => "mov",
            Inst::Lea { .. } => "lea",
            Inst::Add { .. } => "add",
            Inst::Sub { .. } => "sub",
            Inst::Mul { .. } => "imul",
            Inst::And { .. } => "and",
            Inst::Or { .. } => "or",
            Inst::Xor { .. } => "xor",
            Inst::Shl { .. } => "shl",
            Inst::Shr { .. } => "shr",
            Inst::Cmp { .. } => "cmp",
            Inst::Test { .. } => "test",
            Inst::Jmp { .. } => "jmp",
            Inst::JmpIndirect { .. } => "jmp*",
            Inst::Jcc { .. } => "jcc",
            Inst::Call { .. } => "call",
            Inst::CallIndirect { .. } => "call*",
            Inst::Ret => "ret",
            Inst::Push { .. } => "push",
            Inst::Pop { .. } => "pop",
            Inst::Alloc { .. } => "alloc",
            Inst::Free { .. } => "free",
            Inst::Copy { .. } => "copy",
            Inst::In { .. } => "in",
            Inst::Out { .. } => "out",
            Inst::Halt => "halt",
            Inst::Nop => "nop",
        }
    }

    /// True if this instruction ends a basic block (any control transfer or halt).
    pub fn ends_basic_block(&self) -> bool {
        matches!(
            self,
            Inst::Jmp { .. }
                | Inst::JmpIndirect { .. }
                | Inst::Jcc { .. }
                | Inst::Call { .. }
                | Inst::CallIndirect { .. }
                | Inst::Ret
                | Inst::Halt
        )
    }

    /// True if this is a control transfer whose target cannot be determined statically.
    pub fn is_indirect_transfer(&self) -> bool {
        matches!(
            self,
            Inst::JmpIndirect { .. } | Inst::CallIndirect { .. } | Inst::Ret
        )
    }

    /// True if this instruction is a procedure call (direct or indirect).
    pub fn is_call(&self) -> bool {
        matches!(self, Inst::Call { .. } | Inst::CallIndirect { .. })
    }

    /// Operands that the instruction *reads* (excluding address computations, which are
    /// reported separately by the trace front end). Allocation-free: this is queried
    /// once per traced instruction execution.
    pub fn operands_read(&self) -> ReadOperands {
        let mut out = ReadOperands::new(Operand::Imm(0));
        match *self {
            Inst::Mov { src, .. } => out.push(src),
            Inst::Lea { .. } => {}
            Inst::Add { dst, src }
            | Inst::Sub { dst, src }
            | Inst::And { dst, src }
            | Inst::Or { dst, src }
            | Inst::Xor { dst, src }
            | Inst::Shl { dst, src }
            | Inst::Shr { dst, src } => {
                out.push(dst);
                out.push(src);
            }
            Inst::Mul { dst, src } => {
                out.push(Operand::Reg(dst));
                out.push(src);
            }
            Inst::Cmp { a, b } | Inst::Test { a, b } => {
                out.push(a);
                out.push(b);
            }
            Inst::Jmp { .. } | Inst::Jcc { .. } | Inst::Call { .. } => {}
            Inst::JmpIndirect { target } | Inst::CallIndirect { target } => out.push(target),
            Inst::Ret | Inst::Halt | Inst::Nop => {}
            Inst::Push { src } => out.push(src),
            Inst::Pop { .. } => {}
            Inst::Alloc { size, .. } => out.push(size),
            Inst::Free { ptr } => out.push(ptr),
            Inst::Copy { dst, src, len } => {
                out.push(dst);
                out.push(src);
                out.push(len);
            }
            Inst::In { .. } => {}
            Inst::Out { src, .. } => out.push(src),
        }
        out
    }

    /// True if executing this instruction writes the register `r`.
    ///
    /// Calls and returns are not considered here (callees may clobber anything); use
    /// [`Inst::is_call`] to treat them conservatively. Used by the equal-variable
    /// deduplication analysis, which must only merge variables whose equality is
    /// guaranteed by the control-flow graph rather than merely observed.
    pub fn writes_register(&self, r: Reg) -> bool {
        let writes_operand = |op: &Operand| matches!(op, Operand::Reg(reg) if *reg == r);
        match self {
            Inst::Mov { dst, .. }
            | Inst::Add { dst, .. }
            | Inst::Sub { dst, .. }
            | Inst::And { dst, .. }
            | Inst::Or { dst, .. }
            | Inst::Xor { dst, .. }
            | Inst::Shl { dst, .. }
            | Inst::Shr { dst, .. } => writes_operand(dst),
            Inst::Lea { dst, .. }
            | Inst::Mul { dst, .. }
            | Inst::Alloc { dst, .. }
            | Inst::In { dst, .. } => *dst == r,
            Inst::Pop { dst } => writes_operand(dst) || r == Reg::Esp,
            Inst::Push { .. } => r == Reg::Esp,
            Inst::Call { .. } | Inst::CallIndirect { .. } | Inst::Ret => r == Reg::Esp,
            _ => false,
        }
    }

    /// Memory references whose addresses this instruction computes. Allocation-free:
    /// this is queried once per traced instruction execution.
    pub fn mem_refs(&self) -> MemRefs {
        let mut out = MemRefs::new(MemRef::abs(0));
        let mut push_op = |op: &Operand| {
            if let Operand::Mem(m) = op {
                out.push(*m);
            }
        };
        match self {
            Inst::Mov { dst, src }
            | Inst::Add { dst, src }
            | Inst::Sub { dst, src }
            | Inst::And { dst, src }
            | Inst::Or { dst, src }
            | Inst::Xor { dst, src }
            | Inst::Shl { dst, src }
            | Inst::Shr { dst, src } => {
                push_op(dst);
                push_op(src);
            }
            Inst::Mul { src, .. } => push_op(src),
            Inst::Lea { mem, .. } => out.push(*mem),
            Inst::Cmp { a, b } | Inst::Test { a, b } => {
                push_op(a);
                push_op(b);
            }
            Inst::JmpIndirect { target } | Inst::CallIndirect { target } => push_op(target),
            Inst::Push { src } => push_op(src),
            Inst::Pop { dst } => push_op(dst),
            Inst::Alloc { size, .. } => push_op(size),
            Inst::Free { ptr } => push_op(ptr),
            Inst::Copy { dst, src, len } => {
                push_op(dst);
                push_op(src);
                push_op(len);
            }
            Inst::Out { src, .. } => push_op(src),
            _ => {}
        }
        out
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Inst::Mov { dst, src } => write!(f, "mov {dst}, {src}"),
            Inst::Lea { dst, mem } => write!(f, "lea {dst}, {mem}"),
            Inst::Add { dst, src } => write!(f, "add {dst}, {src}"),
            Inst::Sub { dst, src } => write!(f, "sub {dst}, {src}"),
            Inst::Mul { dst, src } => write!(f, "imul {dst}, {src}"),
            Inst::And { dst, src } => write!(f, "and {dst}, {src}"),
            Inst::Or { dst, src } => write!(f, "or {dst}, {src}"),
            Inst::Xor { dst, src } => write!(f, "xor {dst}, {src}"),
            Inst::Shl { dst, src } => write!(f, "shl {dst}, {src}"),
            Inst::Shr { dst, src } => write!(f, "shr {dst}, {src}"),
            Inst::Cmp { a, b } => write!(f, "cmp {a}, {b}"),
            Inst::Test { a, b } => write!(f, "test {a}, {b}"),
            Inst::Jmp { target } => write!(f, "jmp 0x{target:x}"),
            Inst::JmpIndirect { target } => write!(f, "jmp *{target}"),
            Inst::Jcc { cond, target } => write!(f, "j{} 0x{target:x}", cond.mnemonic()),
            Inst::Call { target } => write!(f, "call 0x{target:x}"),
            Inst::CallIndirect { target } => write!(f, "call *{target}"),
            Inst::Ret => write!(f, "ret"),
            Inst::Push { src } => write!(f, "push {src}"),
            Inst::Pop { dst } => write!(f, "pop {dst}"),
            Inst::Alloc { size, dst } => write!(f, "alloc {dst}, {size}"),
            Inst::Free { ptr } => write!(f, "free {ptr}"),
            Inst::Copy { dst, src, len } => write!(f, "copy {dst}, {src}, {len}"),
            Inst::In { dst, port } => write!(f, "in {dst}, {port:?}"),
            Inst::Out { src, port } => write!(f, "out {src}, {port:?}"),
            Inst::Halt => write!(f, "halt"),
            Inst::Nop => write!(f, "nop"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Flags;

    #[test]
    fn cond_round_trip() {
        for c in Cond::ALL {
            assert_eq!(Cond::from_index(c.index()), Some(c));
        }
    }

    #[test]
    fn cond_eval_matches_semantics() {
        // 3 cmp 5 -> less-than.
        let f = Flags::from_cmp(3, 5);
        assert!(Cond::Lt.eval(f));
        assert!(Cond::Le.eval(f));
        assert!(Cond::Ne.eval(f));
        assert!(!Cond::Gt.eval(f));
        assert!(!Cond::Ge.eval(f));
        assert!(!Cond::Eq.eval(f));
        assert!(Cond::Below.eval(f));
        // -1 cmp 1 -> signed less-than but unsigned above.
        let f = Flags::from_cmp(u32::MAX, 1);
        assert!(Cond::Lt.eval(f));
        assert!(Cond::AboveEq.eval(f));
    }

    #[test]
    fn port_round_trip() {
        for p in Port::ALL {
            assert_eq!(Port::from_index(p.index()), Some(p));
        }
    }

    #[test]
    fn ends_basic_block_classification() {
        assert!(Inst::Ret.ends_basic_block());
        assert!(Inst::Halt.ends_basic_block());
        assert!(Inst::Jmp { target: 5 }.ends_basic_block());
        assert!(!Inst::Nop.ends_basic_block());
        assert!(!Inst::Mov {
            dst: Operand::Reg(Reg::Eax),
            src: Operand::Imm(1)
        }
        .ends_basic_block());
    }

    #[test]
    fn indirect_transfer_classification() {
        assert!(Inst::CallIndirect {
            target: Operand::Reg(Reg::Eax)
        }
        .is_indirect_transfer());
        assert!(Inst::Ret.is_indirect_transfer());
        assert!(!Inst::Call { target: 10 }.is_indirect_transfer());
    }

    #[test]
    fn operands_read_for_copy() {
        let c = Inst::Copy {
            dst: Operand::Reg(Reg::Edi),
            src: Operand::Reg(Reg::Esi),
            len: Operand::Reg(Reg::Ecx),
        };
        assert_eq!(c.operands_read().len(), 3);
    }

    #[test]
    fn mem_refs_collected() {
        let i = Inst::Mov {
            dst: Operand::Mem(MemRef::base_disp(Reg::Ebp, 12)),
            src: Operand::Reg(Reg::Eax),
        };
        assert_eq!(i.mem_refs().as_slice(), &[MemRef::base_disp(Reg::Ebp, 12)]);
        assert_eq!(i.to_string(), "mov [ebp+12], eax");
    }

    #[test]
    fn display_of_control_flow() {
        assert_eq!(Inst::Jmp { target: 0x10 }.to_string(), "jmp 0x10");
        assert_eq!(
            Inst::Jcc {
                cond: Cond::Lt,
                target: 0x20
            }
            .to_string(),
            "jl 0x20"
        );
        assert_eq!(
            Inst::CallIndirect {
                target: Operand::Reg(Reg::Eax)
            }
            .to_string(),
            "call *eax"
        );
    }
}
