//! Binary encoding and decoding of instructions.
//!
//! Programs are shipped to the runtime as flat `Vec<u32>` images ("stripped binaries").
//! The managed execution environment decodes basic blocks out of the image on first
//! execution, exactly like the code-cache substrate described in Section 2.1 of the
//! paper. The encoding is word-oriented: every instruction occupies between one and
//! five 32-bit words, so instructions have genuine, variable-length addresses.

use crate::{Addr, Cond, Inst, IsaError, MemRef, Operand, Port, Reg, Word};
use serde::{Deserialize, Serialize};

/// Opcode numbers. Kept private; the public contract is `encode`/`decode` round-tripping.
mod op {
    pub const MOV: u32 = 0x01;
    pub const LEA: u32 = 0x02;
    pub const ADD: u32 = 0x03;
    pub const SUB: u32 = 0x04;
    pub const MUL: u32 = 0x05;
    pub const AND: u32 = 0x06;
    pub const OR: u32 = 0x07;
    pub const XOR: u32 = 0x08;
    pub const SHL: u32 = 0x09;
    pub const SHR: u32 = 0x0a;
    pub const CMP: u32 = 0x0b;
    pub const TEST: u32 = 0x0c;
    pub const JMP: u32 = 0x0d;
    pub const JMP_IND: u32 = 0x0e;
    pub const JCC: u32 = 0x0f;
    pub const CALL: u32 = 0x10;
    pub const CALL_IND: u32 = 0x11;
    pub const RET: u32 = 0x12;
    pub const PUSH: u32 = 0x13;
    pub const POP: u32 = 0x14;
    pub const ALLOC: u32 = 0x15;
    pub const FREE: u32 = 0x16;
    pub const COPY: u32 = 0x17;
    pub const IN: u32 = 0x18;
    pub const OUT: u32 = 0x19;
    pub const HALT: u32 = 0x1a;
    pub const NOP: u32 = 0x1b;
}

/// Operand kind tags within an operand descriptor word.
const OPK_REG: u32 = 1;
const OPK_IMM: u32 = 2;
const OPK_MEM: u32 = 3;

/// An instruction paired with the address it was decoded from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct InstWithAddr {
    /// The address of the first word of the instruction.
    pub addr: Addr,
    /// The decoded instruction.
    pub inst: Inst,
    /// The number of words the encoded instruction occupies.
    pub len: u32,
}

impl InstWithAddr {
    /// Address of the next instruction in straight-line order.
    #[inline]
    pub fn next_addr(&self) -> Addr {
        self.addr + self.len
    }
}

fn encode_operand(out: &mut Vec<Word>, operand: Operand) {
    match operand {
        Operand::Reg(r) => out.push(OPK_REG | ((r.index() as u32) << 8)),
        Operand::Imm(v) => {
            out.push(OPK_IMM);
            out.push(v);
        }
        Operand::Mem(m) => {
            let mut desc = OPK_MEM;
            if let Some(b) = m.base {
                desc |= 1 << 8;
                desc |= (b.index() as u32) << 9;
            }
            if let Some(i) = m.index {
                desc |= 1 << 12;
                desc |= (i.index() as u32) << 13;
            }
            desc |= (m.scale as u32) << 16;
            out.push(desc);
            out.push(m.disp as u32);
        }
    }
}

fn decode_operand(words: &[Word], pos: &mut usize) -> Result<Operand, IsaError> {
    let desc = *words.get(*pos).ok_or(IsaError::TruncatedInstruction)?;
    *pos += 1;
    match desc & 0xff {
        OPK_REG => {
            let idx = ((desc >> 8) & 0x7) as usize;
            let reg = Reg::from_index(idx).ok_or(IsaError::InvalidEncoding(desc))?;
            Ok(Operand::Reg(reg))
        }
        OPK_IMM => {
            let v = *words.get(*pos).ok_or(IsaError::TruncatedInstruction)?;
            *pos += 1;
            Ok(Operand::Imm(v))
        }
        OPK_MEM => {
            let disp = *words.get(*pos).ok_or(IsaError::TruncatedInstruction)? as i32;
            *pos += 1;
            let base = if desc & (1 << 8) != 0 {
                Some(
                    Reg::from_index(((desc >> 9) & 0x7) as usize)
                        .ok_or(IsaError::InvalidEncoding(desc))?,
                )
            } else {
                None
            };
            let index = if desc & (1 << 12) != 0 {
                Some(
                    Reg::from_index(((desc >> 13) & 0x7) as usize)
                        .ok_or(IsaError::InvalidEncoding(desc))?,
                )
            } else {
                None
            };
            let scale = ((desc >> 16) & 0xff) as u8;
            Ok(Operand::Mem(MemRef {
                base,
                index,
                scale,
                disp,
            }))
        }
        _ => Err(IsaError::InvalidEncoding(desc)),
    }
}

/// Encode a single instruction into words.
pub fn encode(inst: Inst) -> Vec<Word> {
    let mut out = Vec::with_capacity(5);
    match inst {
        Inst::Mov { dst, src } => {
            out.push(op::MOV);
            encode_operand(&mut out, dst);
            encode_operand(&mut out, src);
        }
        Inst::Lea { dst, mem } => {
            out.push(op::LEA | ((dst.index() as u32) << 8));
            encode_operand(&mut out, Operand::Mem(mem));
        }
        Inst::Add { dst, src } => {
            out.push(op::ADD);
            encode_operand(&mut out, dst);
            encode_operand(&mut out, src);
        }
        Inst::Sub { dst, src } => {
            out.push(op::SUB);
            encode_operand(&mut out, dst);
            encode_operand(&mut out, src);
        }
        Inst::Mul { dst, src } => {
            out.push(op::MUL | ((dst.index() as u32) << 8));
            encode_operand(&mut out, src);
        }
        Inst::And { dst, src } => {
            out.push(op::AND);
            encode_operand(&mut out, dst);
            encode_operand(&mut out, src);
        }
        Inst::Or { dst, src } => {
            out.push(op::OR);
            encode_operand(&mut out, dst);
            encode_operand(&mut out, src);
        }
        Inst::Xor { dst, src } => {
            out.push(op::XOR);
            encode_operand(&mut out, dst);
            encode_operand(&mut out, src);
        }
        Inst::Shl { dst, src } => {
            out.push(op::SHL);
            encode_operand(&mut out, dst);
            encode_operand(&mut out, src);
        }
        Inst::Shr { dst, src } => {
            out.push(op::SHR);
            encode_operand(&mut out, dst);
            encode_operand(&mut out, src);
        }
        Inst::Cmp { a, b } => {
            out.push(op::CMP);
            encode_operand(&mut out, a);
            encode_operand(&mut out, b);
        }
        Inst::Test { a, b } => {
            out.push(op::TEST);
            encode_operand(&mut out, a);
            encode_operand(&mut out, b);
        }
        Inst::Jmp { target } => {
            out.push(op::JMP);
            out.push(target);
        }
        Inst::JmpIndirect { target } => {
            out.push(op::JMP_IND);
            encode_operand(&mut out, target);
        }
        Inst::Jcc { cond, target } => {
            out.push(op::JCC | ((cond.index() as u32) << 8));
            out.push(target);
        }
        Inst::Call { target } => {
            out.push(op::CALL);
            out.push(target);
        }
        Inst::CallIndirect { target } => {
            out.push(op::CALL_IND);
            encode_operand(&mut out, target);
        }
        Inst::Ret => out.push(op::RET),
        Inst::Push { src } => {
            out.push(op::PUSH);
            encode_operand(&mut out, src);
        }
        Inst::Pop { dst } => {
            out.push(op::POP);
            encode_operand(&mut out, dst);
        }
        Inst::Alloc { size, dst } => {
            out.push(op::ALLOC | ((dst.index() as u32) << 8));
            encode_operand(&mut out, size);
        }
        Inst::Free { ptr } => {
            out.push(op::FREE);
            encode_operand(&mut out, ptr);
        }
        Inst::Copy { dst, src, len } => {
            out.push(op::COPY);
            encode_operand(&mut out, dst);
            encode_operand(&mut out, src);
            encode_operand(&mut out, len);
        }
        Inst::In { dst, port } => {
            out.push(op::IN | ((dst.index() as u32) << 8) | ((port.index() as u32) << 16));
        }
        Inst::Out { src, port } => {
            out.push(op::OUT | ((port.index() as u32) << 16));
            encode_operand(&mut out, src);
        }
        Inst::Halt => out.push(op::HALT),
        Inst::Nop => out.push(op::NOP),
    }
    out
}

/// The number of words `inst` occupies when encoded.
pub fn encoded_len(inst: Inst) -> u32 {
    encode(inst).len() as u32
}

/// Decode one instruction starting at `words[offset]`.
///
/// Returns the instruction and the number of words consumed.
pub fn decode(words: &[Word], offset: usize) -> Result<(Inst, u32), IsaError> {
    let first = *words.get(offset).ok_or(IsaError::TruncatedInstruction)?;
    let opcode = first & 0xff;
    let mut pos = offset + 1;
    let reg_field =
        || Reg::from_index(((first >> 8) & 0x7) as usize).ok_or(IsaError::InvalidEncoding(first));
    let inst = match opcode {
        op::MOV => {
            let dst = decode_operand(words, &mut pos)?;
            let src = decode_operand(words, &mut pos)?;
            Inst::Mov { dst, src }
        }
        op::LEA => {
            let dst = reg_field()?;
            let mem = match decode_operand(words, &mut pos)? {
                Operand::Mem(m) => m,
                _ => return Err(IsaError::InvalidEncoding(first)),
            };
            Inst::Lea { dst, mem }
        }
        op::ADD => {
            let dst = decode_operand(words, &mut pos)?;
            let src = decode_operand(words, &mut pos)?;
            Inst::Add { dst, src }
        }
        op::SUB => {
            let dst = decode_operand(words, &mut pos)?;
            let src = decode_operand(words, &mut pos)?;
            Inst::Sub { dst, src }
        }
        op::MUL => {
            let dst = reg_field()?;
            let src = decode_operand(words, &mut pos)?;
            Inst::Mul { dst, src }
        }
        op::AND => {
            let dst = decode_operand(words, &mut pos)?;
            let src = decode_operand(words, &mut pos)?;
            Inst::And { dst, src }
        }
        op::OR => {
            let dst = decode_operand(words, &mut pos)?;
            let src = decode_operand(words, &mut pos)?;
            Inst::Or { dst, src }
        }
        op::XOR => {
            let dst = decode_operand(words, &mut pos)?;
            let src = decode_operand(words, &mut pos)?;
            Inst::Xor { dst, src }
        }
        op::SHL => {
            let dst = decode_operand(words, &mut pos)?;
            let src = decode_operand(words, &mut pos)?;
            Inst::Shl { dst, src }
        }
        op::SHR => {
            let dst = decode_operand(words, &mut pos)?;
            let src = decode_operand(words, &mut pos)?;
            Inst::Shr { dst, src }
        }
        op::CMP => {
            let a = decode_operand(words, &mut pos)?;
            let b = decode_operand(words, &mut pos)?;
            Inst::Cmp { a, b }
        }
        op::TEST => {
            let a = decode_operand(words, &mut pos)?;
            let b = decode_operand(words, &mut pos)?;
            Inst::Test { a, b }
        }
        op::JMP => {
            let target = *words.get(pos).ok_or(IsaError::TruncatedInstruction)?;
            pos += 1;
            Inst::Jmp { target }
        }
        op::JMP_IND => {
            let target = decode_operand(words, &mut pos)?;
            Inst::JmpIndirect { target }
        }
        op::JCC => {
            let cond = Cond::from_index(((first >> 8) & 0x7) as usize)
                .ok_or(IsaError::InvalidEncoding(first))?;
            let target = *words.get(pos).ok_or(IsaError::TruncatedInstruction)?;
            pos += 1;
            Inst::Jcc { cond, target }
        }
        op::CALL => {
            let target = *words.get(pos).ok_or(IsaError::TruncatedInstruction)?;
            pos += 1;
            Inst::Call { target }
        }
        op::CALL_IND => {
            let target = decode_operand(words, &mut pos)?;
            Inst::CallIndirect { target }
        }
        op::RET => Inst::Ret,
        op::PUSH => {
            let src = decode_operand(words, &mut pos)?;
            Inst::Push { src }
        }
        op::POP => {
            let dst = decode_operand(words, &mut pos)?;
            Inst::Pop { dst }
        }
        op::ALLOC => {
            let dst = reg_field()?;
            let size = decode_operand(words, &mut pos)?;
            Inst::Alloc { size, dst }
        }
        op::FREE => {
            let ptr = decode_operand(words, &mut pos)?;
            Inst::Free { ptr }
        }
        op::COPY => {
            let dst = decode_operand(words, &mut pos)?;
            let src = decode_operand(words, &mut pos)?;
            let len = decode_operand(words, &mut pos)?;
            Inst::Copy { dst, src, len }
        }
        op::IN => {
            let dst = reg_field()?;
            let port = Port::from_index(((first >> 16) & 0xff) as usize)
                .ok_or(IsaError::InvalidEncoding(first))?;
            Inst::In { dst, port }
        }
        op::OUT => {
            let port = Port::from_index(((first >> 16) & 0xff) as usize)
                .ok_or(IsaError::InvalidEncoding(first))?;
            let src = decode_operand(words, &mut pos)?;
            Inst::Out { src, port }
        }
        op::HALT => Inst::Halt,
        op::NOP => Inst::Nop,
        other => return Err(IsaError::UnknownOpcode(other)),
    };
    Ok((inst, (pos - offset) as u32))
}

/// Decode an entire code image, returning one [`InstWithAddr`] per instruction.
///
/// `base` is the address of `words[0]` in the guest address space.
pub fn decode_all(words: &[Word], base: Addr) -> Result<Vec<InstWithAddr>, IsaError> {
    let mut out = Vec::new();
    let mut offset = 0usize;
    while offset < words.len() {
        let (inst, len) = decode(words, offset)?;
        out.push(InstWithAddr {
            addr: base + offset as u32,
            inst,
            len,
        });
        offset += len as usize;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Inst> {
        vec![
            Inst::Mov {
                dst: Operand::Reg(Reg::Eax),
                src: Operand::Imm(42),
            },
            Inst::Mov {
                dst: Operand::Mem(MemRef::base_disp(Reg::Ebp, 12)),
                src: Operand::Reg(Reg::Eax),
            },
            Inst::Lea {
                dst: Reg::Esi,
                mem: MemRef::indexed(Reg::Ebx, Reg::Ecx, 4, -8),
            },
            Inst::Add {
                dst: Operand::Reg(Reg::Esp),
                src: Operand::Imm(4),
            },
            Inst::Sub {
                dst: Operand::Reg(Reg::Esp),
                src: Operand::Imm(4),
            },
            Inst::Mul {
                dst: Reg::Edx,
                src: Operand::Imm(3),
            },
            Inst::Cmp {
                a: Operand::Reg(Reg::Ecx),
                b: Operand::Imm(0),
            },
            Inst::Test {
                a: Operand::Reg(Reg::Eax),
                b: Operand::Reg(Reg::Eax),
            },
            Inst::Jmp { target: 0x1234 },
            Inst::JmpIndirect {
                target: Operand::Reg(Reg::Eax),
            },
            Inst::Jcc {
                cond: Cond::Lt,
                target: 0x4321,
            },
            Inst::Call { target: 0x1050 },
            Inst::CallIndirect {
                target: Operand::Mem(MemRef::base_disp(Reg::Eax, 2)),
            },
            Inst::Ret,
            Inst::Push {
                src: Operand::Reg(Reg::Ebp),
            },
            Inst::Pop {
                dst: Operand::Reg(Reg::Ebp),
            },
            Inst::Alloc {
                size: Operand::Imm(16),
                dst: Reg::Eax,
            },
            Inst::Free {
                ptr: Operand::Reg(Reg::Eax),
            },
            Inst::Copy {
                dst: Operand::Reg(Reg::Edi),
                src: Operand::Reg(Reg::Esi),
                len: Operand::Reg(Reg::Ecx),
            },
            Inst::In {
                dst: Reg::Eax,
                port: Port::Input,
            },
            Inst::Out {
                src: Operand::Reg(Reg::Eax),
                port: Port::Render,
            },
            Inst::Halt,
            Inst::Nop,
        ]
    }

    #[test]
    fn round_trip_each_sample() {
        for inst in samples() {
            let words = encode(inst);
            let (decoded, len) = decode(&words, 0).expect("decode");
            assert_eq!(decoded, inst);
            assert_eq!(len as usize, words.len());
            assert_eq!(encoded_len(inst) as usize, words.len());
        }
    }

    #[test]
    fn decode_all_assigns_sequential_addresses() {
        let mut words = Vec::new();
        let mut expected_addrs = Vec::new();
        let base = 0x1000;
        for inst in samples() {
            expected_addrs.push(base + words.len() as u32);
            words.extend(encode(inst));
        }
        let decoded = decode_all(&words, base).expect("decode_all");
        assert_eq!(decoded.len(), samples().len());
        for (d, (inst, addr)) in decoded
            .iter()
            .zip(samples().into_iter().zip(expected_addrs))
        {
            assert_eq!(d.inst, inst);
            assert_eq!(d.addr, addr);
        }
    }

    #[test]
    fn truncated_stream_is_an_error() {
        let words = encode(Inst::Mov {
            dst: Operand::Reg(Reg::Eax),
            src: Operand::Imm(7),
        });
        let truncated = &words[..words.len() - 1];
        assert!(decode(truncated, 0).is_err());
    }

    #[test]
    fn unknown_opcode_is_an_error() {
        assert!(matches!(
            decode(&[0xff], 0),
            Err(IsaError::UnknownOpcode(0xff))
        ));
    }

    #[test]
    fn next_addr_accounts_for_length() {
        let inst = Inst::Copy {
            dst: Operand::Reg(Reg::Edi),
            src: Operand::Reg(Reg::Esi),
            len: Operand::Imm(8),
        };
        let words = encode(inst);
        let iwa = InstWithAddr {
            addr: 0x2000,
            inst,
            len: words.len() as u32,
        };
        assert_eq!(iwa.next_addr(), 0x2000 + words.len() as u32);
    }
}
