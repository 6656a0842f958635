//! The `host_heavy` guest: a render loop long enough that per-instruction costs
//! (fetch, hook lookup, Memory Firewall, Shadow Stack, Heap Guard) dominate the
//! per-run set-up that dominates the 27-instruction browser pages.
//!
//! One page drives `iterations` trips round a loop of ~27 guest instructions:
//! register and stack arithmetic on a checksum, one direct call (`elem`), one
//! indirect call through a four-entry pointer table inside `elem`, and a heap
//! block allocated, written, read back and freed every eighth trip. `elem`
//! carries the browser's Bugzilla-311710 defect: `idx = raw - 10` is never
//! checked for a negative value, so a raw index of 4 reads a page-controlled word
//! from the buffer allocated just before the table and calls through it.
//!
//! Page layout: `[iterations, raw × 8, spray × 4, salt]`.

use crate::rng::Rng;
use cv_isa::{Addr, BinaryImage, Cond, MemRef, Operand, Port, ProgramBuilder, Reg, Word};

/// Raw index words per page (the loop cycles through them).
pub const RAW_SLOTS: usize = 8;
/// Loop trips of a timed benign page (~30 instructions each, ~30k per page, so the
/// ~92 µs `Machine::new` is under a tenth of a page).
pub const TIMED_ITERATIONS: Word = 1024;
/// Loop trips of a learning or attack page (short: learning traces every instruction).
pub const SHORT_ITERATIONS: Word = 48;
/// Rendered after the final checksum.
pub const HEAVY_DONE: Word = 0xD0AE;

/// The assembled guest plus the address its oracles need.
pub struct HeavyGuest {
    pub image: BinaryImage,
    /// The indirect call in `elem`: the failure location of the attack page.
    pub call_site: Addr,
}

impl HeavyGuest {
    pub fn build() -> HeavyGuest {
        let mut b = ProgramBuilder::new();

        // Handlers: each folds a constant into the checksum in edx.
        let mut handlers = [0 as Addr; 4];
        for (k, slot) in handlers.iter_mut().enumerate() {
            let l = b.function(&format!("h{k}"));
            *slot = b.label_addr(l).expect("just bound");
            b.add(Reg::Edx, 0x101 + 0x20 * k as u32);
            b.ret();
        }

        // elem(ecx = raw, ebx = table): the seeded negative-index defect.
        let elem = b.function("elem");
        b.sub(Reg::Ecx, 10u32);
        let call_site = b.call_indirect(Operand::Mem(MemRef::indexed(Reg::Ebx, Reg::Ecx, 1, 0)));
        b.ret();

        let n_cell = b.data_word(0);

        let main = b.function("main");
        b.input(Reg::Eax, Port::Input);
        b.mov(Operand::Mem(MemRef::abs(n_cell)), Reg::Eax);
        b.alloc(Reg::Edi, RAW_SLOTS as u32);
        for k in 0..RAW_SLOTS as i32 {
            b.input(Reg::Eax, Port::Input);
            b.mov(Operand::Mem(MemRef::base_disp(Reg::Edi, k)), Reg::Eax);
        }
        // The page-filled buffer sits directly before the pointer table, as in the
        // browser's get_elem routines.
        b.alloc(Reg::Esi, 4u32);
        for k in 0..4 {
            b.input(Reg::Eax, Port::Input);
            b.mov(Operand::Mem(MemRef::base_disp(Reg::Esi, k)), Reg::Eax);
        }
        b.alloc(Reg::Ebx, 4u32);
        for (k, h) in handlers.iter().enumerate() {
            b.mov(Operand::Mem(MemRef::base_disp(Reg::Ebx, k as i32)), *h);
        }
        b.input(Reg::Edx, Port::Input);
        b.mov(Reg::Ecx, 0u32);

        let top = b.new_label("loop");
        let done = b.new_label("done");
        let skip_heap = b.new_label("skip_heap");
        let skip_out = b.new_label("skip_out");
        b.bind(top);
        b.cmp(Reg::Ecx, Operand::Mem(MemRef::abs(n_cell)));
        b.jcc(Cond::AboveEq, done);
        // Checksum arithmetic through the stack.
        b.push(Reg::Edx);
        b.mov(Reg::Eax, Reg::Ecx);
        b.and(Reg::Eax, (RAW_SLOTS - 1) as u32);
        b.mov(
            Reg::Eax,
            Operand::Mem(MemRef::indexed(Reg::Edi, Reg::Eax, 1, 0)),
        );
        b.pop(Reg::Edx);
        b.add(Reg::Edx, Reg::Eax);
        b.shl(Reg::Edx, 1u32);
        b.and(Reg::Edx, 0xFFFFu32);
        // Direct call into the routine with the indirect call.
        b.push(Reg::Ecx);
        b.mov(Reg::Ecx, Reg::Eax);
        b.call(elem);
        b.pop(Reg::Ecx);
        // Every eighth trip: a heap block written, read back and freed.
        b.mov(Reg::Eax, Reg::Ecx);
        b.and(Reg::Eax, 7u32);
        b.cmp(Reg::Eax, 0u32);
        b.jcc(Cond::Ne, skip_heap);
        b.alloc(Reg::Eax, 8u32);
        b.mov(Operand::Mem(MemRef::base(Reg::Eax)), Reg::Edx);
        b.mov(Operand::Mem(MemRef::base_disp(Reg::Eax, 3)), Reg::Ecx);
        b.add(Reg::Edx, Operand::Mem(MemRef::base_disp(Reg::Eax, 3)));
        b.free(Reg::Eax);
        b.bind(skip_heap);
        // Every 64th trip: render the running checksum.
        b.mov(Reg::Eax, Reg::Ecx);
        b.and(Reg::Eax, 63u32);
        b.cmp(Reg::Eax, 0u32);
        b.jcc(Cond::Ne, skip_out);
        b.output(Reg::Edx, Port::Render);
        b.bind(skip_out);
        b.add(Reg::Ecx, 1u32);
        b.jmp(top);
        b.bind(done);
        b.output(Reg::Edx, Port::Render);
        b.output(HEAVY_DONE, Port::Render);
        b.halt();
        b.set_entry(main);

        HeavyGuest {
            image: b.build().expect("heavy guest assembles"),
            call_site,
        }
    }

    /// A benign page: raw indices in 10..=13, small content words.
    pub fn benign_page(&self, iterations: Word, rng: &mut Rng) -> Vec<Word> {
        let mut p = vec![iterations];
        p.extend((0..RAW_SLOTS).map(|_| 10 + rng.below(4) as Word));
        p.extend((0..4).map(|_| 1 + rng.below(30_000) as Word));
        p.push(1 + rng.below(30_000) as Word);
        p
    }

    /// The learning suite: short pages whose raw indices cover all four handlers
    /// and whose content words take far more than `ONE_OF_LIMIT` values.
    pub fn learning_pages(&self) -> Vec<Vec<Word>> {
        let mut rng = Rng::new(0x4EA7);
        (0..24)
            .map(|_| self.benign_page(SHORT_ITERATIONS, &mut rng))
            .collect()
    }

    /// The attack page: raw index 4 in slot 5 makes `idx = -6`, which reads the
    /// first word of the page-filled buffer — an address outside the code image.
    pub fn exploit_page(&self) -> Vec<Word> {
        let injected = self.image.layout.heap_base + 2;
        let mut p = vec![SHORT_ITERATIONS];
        p.extend([10, 11, 12, 13, 10, 4, 12, 13]);
        p.extend([injected; 4]);
        p.push(7);
        p
    }
}
