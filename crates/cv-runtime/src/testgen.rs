//! Random guest programs for this crate's property tests.
//!
//! A program comes from a byte string, one instruction per `(kind, t)` pair: short
//! straight-line runs broken by every kind of block end, with jump targets anywhere in
//! the segment (mid-instruction too) and small immediates, so that an operand word read
//! as an opcode is often a valid one. [`random_image`] draws from the twelve kinds the
//! code cache cares about; [`random_program`] from every form the run loops execute.

use cv_isa::{
    encode, Addr, BinaryImage, Cond, Inst, MemRef, MemoryLayout, Operand, Port, ProgramBuilder,
    Reg, Word,
};

/// Kinds [`random_image`] draws from: straight-line code and every kind of block end.
const CONTROL_KINDS: u8 = 12;
/// Kinds [`random_program`] draws from.
const ALL_KINDS: u8 = 40;

/// A program of moves, adds, compares, pushes and block ends.
pub(crate) fn random_image(shape: &[(u8, u8)]) -> BinaryImage {
    build(shape, CONTROL_KINDS, None).0
}

/// A program over every instruction form: the block loop's common forms with each
/// operand shape, the forms it hands to the per-instruction step (`copy`, `alloc`,
/// `free`, `mul`, `test`, `lea`, `in`, `out`, `or`, `xor`, `shr`, memory
/// destinations), and indirect calls and jumps through data words that hold code
/// addresses, an injected payload in the data segment, or worse.
///
/// So that runs get somewhere, a prologue points `ebx` at a four-word heap block,
/// `esi` at the data segment and `edi` into the stack, gives `ecx`, `edx` and `ebp`
/// values other than zero, and calls the random body,
/// which returns to the registers written to the debug port and a `halt`; most memory operands go through those registers — near
/// the block's canaries among other places — while the rest name a segment edge; and
/// half the direct jumps land on an instruction (the image is assembled twice, the
/// first time to learn where the instructions are).
pub(crate) fn random_program(shape: &[(u8, u8)]) -> BinaryImage {
    let (_, starts) = build(shape, ALL_KINDS, None);
    build(shape, ALL_KINDS, Some(&starts)).0
}

/// Addresses where a memory access or a stack pointer changes what it may do: either
/// side of every segment edge, and the unmapped words at both ends.
pub(crate) fn edges(layout: MemoryLayout) -> [Addr; 16] {
    [
        0,
        layout.code_base - 1,
        layout.code_base,
        layout.code_end() - 1,
        layout.data_base,
        layout.data_base + 1,
        layout.data_end() - 1,
        layout.heap_base,
        layout.heap_base + 1,
        layout.heap_base + 3,
        layout.heap_end() - 1,
        layout.stack_base - 1,
        layout.stack_base,
        layout.stack_base + 1,
        layout.stack_end() - 1,
        layout.stack_end(),
    ]
}

/// The image, and where each of `shape`'s instructions starts. With `starts` (of a
/// first assembly), every [`random_program`] form, its prologue and jumps that land on
/// instructions; without, [`random_image`]'s forms.
fn build(shape: &[(u8, u8)], kinds: u8, starts: Option<&[Addr]>) -> (BinaryImage, Vec<Addr>) {
    let mut b = ProgramBuilder::new();
    let layout = b.layout();
    let main = b.function("main");
    // Code run from the data segment: render a marker, then return.
    let mut payload = encode(Inst::Out {
        src: Operand::Imm(0xEE11),
        port: Port::Render,
    });
    payload.extend(encode(Inst::Ret));
    let injected = b.data_words(&payload);
    let body = b.new_label("body");
    if kinds == ALL_KINDS {
        b.alloc(Reg::Ebx, 4u32);
        b.mov(Reg::Esi, layout.data_base);
        b.lea(Reg::Edi, MemRef::base_disp(Reg::Esp, -8));
        b.input(Reg::Ecx, Port::Input);
        b.input(Reg::Edx, Port::Input);
        b.mov(Reg::Ebp, 0x9E37_79B9u32);
        b.call(body);
        for reg in Reg::ALL {
            b.output(reg, Port::Debug);
        }
        b.halt();
    }
    let base = b.bind(body);
    let target = |t: u8| match starts {
        Some(starts) if t.is_multiple_of(2) => starts[(t / 2) as usize % starts.len()],
        _ => base + (t as Addr % (3 * shape.len() as Addr)),
    };
    let reg = |t: u8| Reg::ALL[t as usize % 8];
    // Destinations: mostly the registers the prologue leaves alone.
    let dst =
        |t: u8| [Reg::Eax, Reg::Ecx, Reg::Edx, Reg::Ebp, Reg::Eax, reg(t / 5)][t as usize % 6];
    let edge = |t: u8| edges(layout)[(t / 8) as usize % 16];
    let pointer = |t: u8| [Reg::Ebx, Reg::Esi, Reg::Edi, Reg::Esp][t as usize % 4];
    let mem = |t: u8| match t % 5 {
        0 => MemRef::abs(edge(t)),
        1..=3 => MemRef::base_disp(pointer(t / 5), (t / 20 % 7) as i32 - 2),
        _ => MemRef::indexed(pointer(t / 5), Reg::Ecx, 1, (t / 20 % 3) as i32),
    };
    let src = |t: u8| match t % 3 {
        0 => Operand::Imm((t % 24) as u32),
        1 => Operand::Reg(reg(t / 3)),
        _ => Operand::Mem(mem(t / 3)),
    };
    let mut at = Vec::with_capacity(shape.len());
    for &(kind, t) in shape {
        at.push(b.here());
        match kind % kinds {
            0 | 1 => b.mov(Reg::Eax, (t % 24) as u32),
            2 => b.add(Reg::Ebx, Reg::Eax),
            3 => b.cmp(Reg::Eax, (t % 24) as u32),
            4 => b.nop(),
            5 => b.push(Reg::Eax),
            6 => b.emit(Inst::Jcc {
                cond: Cond::Eq,
                target: target(t),
            }),
            7 => b.emit(Inst::Jmp { target: target(t) }),
            8 => b.emit(Inst::Call { target: target(t) }),
            9 => b.emit(Inst::CallIndirect {
                target: Operand::Reg(Reg::Eax),
            }),
            10 => b.ret(),
            11 => b.halt(),
            12 => b.mov(dst(t), reg(t / 6)),
            13 => b.mov(dst(t), Operand::Mem(mem(t / 6))),
            14 => b.mov(Operand::Mem(mem(t)), reg(t / 5)),
            15 => b.add(dst(t), src(t / 6)),
            16 => b.sub(dst(t), src(t / 6)),
            17 => b.and(dst(t), src(t / 6)),
            18 => b.shl(dst(t), src(t / 6)),
            // A compare, and a branch on it.
            19 => {
                b.cmp(reg(t), src(t / 8));
                b.emit(Inst::Jcc {
                    cond: Cond::ALL[t as usize % 8],
                    target: target(t / 2),
                })
            }
            20 => b.pop(dst(t)),
            21 => b.push(reg(t)),
            // Register values at the edges, and a push off a stack pointer there.
            22 => b.mov(reg(t), edge(t)),
            23 => {
                b.mov(Reg::Esp, edge(t));
                b.push(reg(t))
            }
            24 => b.emit(Inst::Jcc {
                cond: Cond::ALL[t as usize % 8],
                target: target(t),
            }),
            25 => b.copy(pointer(t), pointer(t / 4), (t % 12) as u32),
            26 => b.alloc(dst(t), src(t / 6)),
            27 => b.free(reg(t)),
            28 => b.mul(dst(t), src(t / 6)),
            29 => b.test(reg(t), src(t / 8)),
            30 => b.lea(dst(t), mem(t / 6)),
            31 => b.output(src(t), [Port::Render, Port::Debug][t as usize % 2]),
            32 => b.input(dst(t), Port::Input),
            33 => match t % 3 {
                0 => b.emit(Inst::Or {
                    dst: Operand::Reg(dst(t / 3)),
                    src: src(t / 18),
                }),
                1 => b.emit(Inst::Xor {
                    dst: Operand::Reg(dst(t / 3)),
                    src: src(t / 18),
                }),
                _ => b.shr(dst(t / 3), src(t / 18)),
            },
            // Memory destinations and sources the block loop leaves to the step.
            34 => match t % 4 {
                0 => b.mov(Operand::Mem(mem(t / 4)), (t % 24) as u32),
                1 => b.add(Operand::Mem(mem(t / 4)), reg(t / 32)),
                2 => b.push(Operand::Mem(mem(t / 4))),
                _ => b.pop(Operand::Mem(mem(t / 4))),
            },
            // Indirect transfers through a data word: a code address anywhere, the
            // injected payload, or a heap or unmapped word.
            35..=37 => {
                let word: Word = match t % 4 {
                    0 => target(t / 4),
                    1 | 2 => injected,
                    _ => edge(t / 4),
                };
                let cell = Operand::Mem(MemRef::abs(b.data_word(word)));
                if kind % kinds == 35 {
                    b.jmp_indirect(cell)
                } else {
                    b.call_indirect(cell)
                }
            }
            38 => b.call_indirect(reg(t)),
            _ => b.jmp_indirect(reg(t)),
        };
    }
    if kinds == ALL_KINDS {
        b.ret();
    }
    b.set_entry(main);
    (b.build().expect("every generated form assembles"), at)
}
