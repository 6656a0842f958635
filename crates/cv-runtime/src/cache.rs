//! The code cache: one dense table of decoded instructions, filled a block at a time.
//!
//! The Determina Managed Program Execution Environment executes all code out of a code
//! cache of dynamically built basic blocks; patches are applied by ejecting the affected
//! blocks and re-building them with instrumentation (Section 2.1), so an instruction
//! that carries no patch pays nothing for the patches elsewhere. The cache here plays
//! the same role. A fetch from it is a subtraction, a bounds check and the slot's stamp
//! compared with the table's generation; the block loop borrows the table once for a
//! whole run of hits and matches each instruction where it lies in its slot, without
//! copying it (see `env.rs`):
//!
//! * **A slot per code word.** [`CodeTable`] holds one slot for every word of the code
//!   segment, indexed by `addr − code_base`: the instruction decoded at that address,
//!   its length, and a *stamp*. A slot is live — a fetch there is a hit — when its stamp
//!   equals the table's generation. Decoding is context-free, so what a slot holds is a
//!   function of its address alone; ejecting and flushing only ever touch stamps, and a
//!   slot that was filled once stays correct however often it goes stale.
//! * **Filled a block at a time, decoded once.** A miss where no block was ever built
//!   from the address or through it decodes the basic block that starts there
//!   ([`CodeCache::build_block`]) into its slots. A miss at a slot that was filled before
//!   — its block flushed or ejected since — decodes nothing: a filled slot stays
//!   correct, so the block is still there to be walked. Either way one routine then
//!   stamps the slot of each of its instructions, and the miss counts one `blocks_built`
//!   — the "cache warm-up" component of the paper's Table 3 timing, and the tracer's
//!   first-execution signal. A flush still means "cold" to the cost model; it no longer
//!   costs the reproduction a decoder pass.
//! * **Flushing is one increment.** [`CodeCache::flush`] bumps the generation; every
//!   slot goes stale at once, whatever the size of the program.
//! * **How a patch reaches a block.** Applying or removing a hook at an address calls
//!   [`CodeCache::eject_blocks_containing`]. Every block through an address runs on to
//!   the same end, so the cache keeps its live blocks ordered by `(end, start)` and an
//!   ejection looks only at the blocks that share the address's end: each one that
//!   contains the address leaves the set and its slots go stale, and the next execution
//!   re-stamps it — now passing through the hook registry's site table
//!   ([`HookRegistry`](crate::HookRegistry)), the reproduction's form of "rebuild the
//!   block with the patch in it".
//!
//! Blocks may overlap (a jump into the middle of straight-line code that is later
//! reached from above; a jump into the middle of an instruction, which decodes
//! differently and may or may not fall back into step). Ejecting a block un-caches
//! every address it covers, also one that another live block covers: that block stays
//! in the set — it is still ejected and counted by a later patch inside it — and the
//! next fetch at a stale address builds, and counts, the block that starts there.
//!
//! The fleet's pre-decoded index is the same table with every slot filled up front
//! ([`CodeTable::prebuilt`]) and shared behind an `Arc`; see [`crate::SharedProgram`].

use crate::error::RuntimeError;
use cv_isa::{decode, Addr, BinaryImage, Inst, InstWithAddr};
use std::collections::BTreeSet;

/// A decoded basic block: a maximal straight-line instruction sequence ending at a
/// control transfer (or at the end of the loaded code).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BasicBlock {
    /// Address of the first instruction.
    pub start: Addr,
    /// The instructions of the block, in order.
    pub insts: Vec<InstWithAddr>,
}

impl BasicBlock {
    /// One past the last word of the block.
    pub fn end(&self) -> Addr {
        self.insts
            .last()
            .map(|i| i.next_addr())
            .unwrap_or(self.start)
    }
}

/// One code word's entry: what decodes there, and whether that is currently cached.
#[derive(Debug, Clone, Copy)]
struct Slot {
    inst: Inst,
    /// Words the instruction occupies; 0 in a slot that was never filled.
    len: u32,
    /// Live when equal to the table's generation. Generations start at 1.
    stamp: u32,
}

const NEVER_FILLED: Slot = Slot {
    inst: Inst::Nop,
    len: 0,
    stamp: 0,
};

/// Decoded instructions for a code segment, one slot per word, indexed by address.
///
/// The private, lazily filled table of a [`CodeCache`] and the fully pre-built one a
/// [`SharedProgram`](crate::SharedProgram) shares are the same type: each run loop has
/// one fetch for both.
#[derive(Debug)]
pub struct CodeTable {
    code_base: Addr,
    generation: u32,
    slots: Vec<Slot>,
}

impl Default for CodeTable {
    fn default() -> Self {
        CodeTable {
            code_base: 0,
            generation: 1,
            slots: Vec::new(),
        }
    }
}

impl CodeTable {
    /// A table over `image`'s code segment with no slot filled.
    fn unfilled(image: &BinaryImage) -> CodeTable {
        CodeTable {
            code_base: image.layout.code_base,
            slots: vec![NEVER_FILLED; image.code.len()],
            ..CodeTable::default()
        }
    }

    /// Every address of `image`'s code segment decoded up front.
    ///
    /// A slot is live exactly where a cold [`CodeCache::fetch`] succeeds: where the
    /// whole block from that address decodes (a hit at an address implies the rest of
    /// its block decoded, so the cache's error set does not depend on its state). An
    /// instruction's successor lies above it, so one descending pass settles every
    /// address without building a block.
    pub(crate) fn prebuilt(image: &BinaryImage) -> CodeTable {
        let mut table = CodeTable::unfilled(image);
        for offset in (0..image.code.len()).rev() {
            let Ok((inst, len)) = decode(&image.code, offset) else {
                continue;
            };
            let next = offset + len as usize;
            let block_decodes = inst.ends_basic_block()
                || table
                    .slots
                    .get(next)
                    .is_none_or(|s| s.stamp == table.generation);
            if block_decodes {
                table.fill(offset, inst, len);
            }
        }
        table
    }

    /// The cached instruction at `addr` and its length: what both run loops read on
    /// every guest instruction. By reference, so that the block loop matches the
    /// instruction in its slot and the per-instruction loop copies it once, into place;
    /// handed over as an `Option<InstWithAddr>` it was copied twice, the second time
    /// through a stalled load — 1.5 ns of a 9 ns instruction.
    #[inline]
    pub(crate) fn hit(&self, addr: Addr) -> Option<(&Inst, u32)> {
        let slot = self.slots.get(addr.wrapping_sub(self.code_base) as usize)?;
        (slot.stamp == self.generation).then_some((&slot.inst, slot.len))
    }

    /// The cached instruction at `addr`; `None` for an address that is not cached —
    /// in a pre-built table, one that does not decode — or lies outside the segment.
    pub fn fetch(&self, addr: Addr) -> Option<InstWithAddr> {
        let (&inst, len) = self.hit(addr)?;
        Some(InstWithAddr { addr, inst, len })
    }

    /// Addresses covered (the code segment length in words).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True for an empty code segment.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Bytes the table occupies.
    pub(crate) fn resident_bytes(&self) -> usize {
        self.slots.len() * std::mem::size_of::<Slot>()
    }

    fn fill(&mut self, offset: usize, inst: Inst, len: u32) {
        self.slots[offset] = Slot {
            inst,
            len,
            stamp: self.generation,
        };
    }

    /// Record what decodes at `offset` without making the slot live.
    fn store(&mut self, offset: usize, inst: Inst, len: u32) {
        let slot = &mut self.slots[offset];
        (slot.inst, slot.len) = (inst, len);
    }

    /// Make live the slots of the block that starts at the filled slot `start`; returns
    /// one past the block's last word. The one way a block enters a [`CodeCache`],
    /// whether its slots were decoded a moment ago or a thousand flushes back.
    fn stamp_block(&mut self, start: usize) -> Addr {
        let mut last = start;
        loop {
            self.slots[last].stamp = self.generation;
            match self.next_in_block(last) {
                Some(next) => last = next,
                None => return self.code_base + (last + self.slots[last].len as usize) as Addr,
            }
        }
    }

    /// The offset of `addr`, if its slot was ever filled. From such a slot the rest of
    /// its block can be walked: slots are only ever filled a whole block at a time.
    fn filled(&self, addr: Addr) -> Option<usize> {
        let offset = addr.wrapping_sub(self.code_base) as usize;
        (self.slots.get(offset)?.len > 0).then_some(offset)
    }

    /// The offset of the instruction that follows the filled slot `offset` in its block;
    /// `None` where the block ends.
    fn next_in_block(&self, offset: usize) -> Option<usize> {
        let slot = &self.slots[offset];
        let next = offset + slot.len as usize;
        (!slot.inst.ends_basic_block() && next < self.slots.len()).then_some(next)
    }

    /// Offsets of the instructions of the block that starts at the filled slot `start`.
    fn block_from(&self, start: usize) -> impl Iterator<Item = usize> + '_ {
        std::iter::successors(Some(start), |&offset| self.next_in_block(offset))
    }

    /// One past the last word of the block through the filled slot `offset`.
    fn block_end(&self, offset: usize) -> Addr {
        let last = self.block_from(offset).last().unwrap_or(offset);
        self.code_base + (last + self.slots[last].len as usize) as Addr
    }

    /// Make every slot stale.
    fn retire_all(&mut self) {
        self.generation = self.generation.checked_add(1).unwrap_or_else(|| {
            self.slots.iter_mut().for_each(|slot| slot.stamp = 0);
            1
        });
    }
}

/// The code cache of one classic environment: a [`CodeTable`] filled on first
/// execution, and the set of blocks that filled it.
///
/// A cache serves one image; fetching from an image of another shape starts it over.
#[derive(Debug, Default)]
pub struct CodeCache {
    table: CodeTable,
    /// Live blocks as `(end, start)`; see the module docs.
    blocks: BTreeSet<(Addr, Addr)>,
    /// Blocks made live since creation: first builds, and re-builds after a flush or an
    /// ejection alike.
    pub blocks_built: u64,
    /// Blocks ejected (for patch application/removal).
    pub blocks_ejected: u64,
}

impl CodeCache {
    /// Create an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of cached blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// The table the run loop fetches from.
    #[inline]
    pub(crate) fn table(&self) -> &CodeTable {
        &self.table
    }

    /// Fetch the instruction at `addr`, building the block that starts there if needed.
    ///
    /// Returns the instruction and, when a new block was built to satisfy the fetch, the
    /// start address of that block (so the environment can notify the tracer of a
    /// first-time block execution). Only a block never built before is decoded; one that
    /// was flushed or ejected is re-stamped from its slots (module docs).
    pub fn fetch(
        &mut self,
        image: &BinaryImage,
        addr: Addr,
    ) -> Result<(InstWithAddr, Option<Addr>), RuntimeError> {
        if let Some(iwa) = self.table.fetch(addr) {
            return Ok((iwa, None));
        }
        let same_image =
            self.table.code_base == image.layout.code_base && self.table.len() == image.code.len();
        let start = match self.table.filled(addr) {
            Some(start) if same_image => start,
            _ => {
                let block = Self::build_block(image, addr)?;
                if !same_image {
                    self.table = CodeTable::unfilled(image);
                    self.blocks.clear();
                }
                for iwa in &block.insts {
                    let offset = (iwa.addr - self.table.code_base) as usize;
                    self.table.store(offset, iwa.inst, iwa.len);
                }
                (addr - self.table.code_base) as usize
            }
        };
        let end = self.table.stamp_block(start);
        self.blocks.insert((end, addr));
        self.blocks_built += 1;
        let first = self.table.fetch(addr).expect("its slot was just stamped");
        Ok((first, Some(addr)))
    }

    /// Decode the basic block starting at `addr` without caching it (used by the
    /// learning component's procedure discovery as well).
    pub fn build_block(image: &BinaryImage, addr: Addr) -> Result<BasicBlock, RuntimeError> {
        if !image.contains_code_addr(addr) {
            return Err(RuntimeError::AddressOutsideCode(addr));
        }
        let mut insts = Vec::new();
        let mut cur = addr;
        loop {
            let offset = (cur - image.layout.code_base) as usize;
            let (inst, len) = decode(&image.code, offset)?;
            let iwa = InstWithAddr {
                addr: cur,
                inst,
                len,
            };
            let ends = inst.ends_basic_block();
            cur = iwa.next_addr();
            insts.push(iwa);
            if ends || !image.contains_code_addr(cur) {
                break;
            }
        }
        Ok(BasicBlock { start: addr, insts })
    }

    /// Eject every cached block containing the instruction at `addr`. Returns the number
    /// of blocks ejected. This is how patches are applied to (and removed from) a
    /// running application: the stale block leaves the cache and is re-built, now passing
    /// through the instrumentation plugins, the next time it executes.
    ///
    /// Costs the length of the blocks that end where `addr`'s block ends, not the size
    /// of the cache.
    pub fn eject_blocks_containing(&mut self, addr: Addr) -> usize {
        let Some(target) = self.table.filled(addr) else {
            return 0;
        };
        let end = self.table.block_end(target);
        let stale: Vec<Addr> = self
            .blocks
            .range((end, 0)..=(end, addr))
            .map(|&(_, start)| start)
            .filter(|&start| {
                let start = (start - self.table.code_base) as usize;
                self.table.block_from(start).any(|offset| offset == target)
            })
            .collect();
        for &start in &stale {
            self.blocks.remove(&(end, start));
            let mut offset = (start - self.table.code_base) as usize;
            while self.table.code_base + (offset as Addr) < end {
                let slot = &mut self.table.slots[offset];
                slot.stamp = 0;
                offset += slot.len as usize;
            }
        }
        self.blocks_ejected += stale.len() as u64;
        stale.len()
    }

    /// Drop every cached block (a "cold cache", as after a restart).
    pub fn flush(&mut self) {
        self.table.retire_all();
        self.blocks.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testgen::random_image;
    use cv_isa::{Cond, ProgramBuilder, Reg};
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn image_with_branches() -> BinaryImage {
        let mut b = ProgramBuilder::new();
        let main = b.function("main");
        b.mov(Reg::Eax, 1u32);
        b.cmp(Reg::Eax, 0u32);
        let skip = b.new_label("skip");
        b.jcc(Cond::Eq, skip);
        b.add(Reg::Eax, 2u32);
        b.bind(skip);
        b.halt();
        b.set_entry(main);
        b.build().unwrap()
    }

    #[test]
    fn fetch_builds_block_ending_at_branch() {
        let image = image_with_branches();
        let mut cache = CodeCache::new();
        let (first, built) = cache.fetch(&image, image.entry).unwrap();
        assert_eq!(first.addr, image.entry);
        assert_eq!(built, Some(image.entry));
        // mov, cmp, jcc — the block ends at the conditional jump: those three are
        // cached, the add after the jump is not.
        let block = CodeCache::build_block(&image, image.entry).unwrap();
        assert_eq!(block.insts.len(), 3);
        assert!(block.insts.last().unwrap().inst.ends_basic_block());
        for iwa in &block.insts {
            assert_eq!(cache.table().fetch(iwa.addr), Some(*iwa));
        }
        assert_eq!(cache.table().fetch(block.end()), None);
        assert_eq!(cache.block_count(), 1);
    }

    #[test]
    fn second_fetch_is_a_hit() {
        let image = image_with_branches();
        let mut cache = CodeCache::new();
        let first = cache.fetch(&image, image.entry).unwrap();
        let (again, built) = cache.fetch(&image, image.entry).unwrap();
        assert_eq!(built, None);
        assert_eq!(again, first.0);
        assert_eq!(cache.blocks_built, 1);
    }

    #[test]
    fn fetch_mid_block_instruction_hits_after_block_built() {
        let image = image_with_branches();
        let mut cache = CodeCache::new();
        let (first, _) = cache.fetch(&image, image.entry).unwrap();
        // The cmp instruction directly follows the mov.
        let cmp_addr = first.next_addr();
        let (cmp, built) = cache.fetch(&image, cmp_addr).unwrap();
        assert_eq!(built, None, "served from the already-built block");
        assert_eq!(cmp.addr, cmp_addr);
    }

    #[test]
    fn eject_removes_blocks_containing_address() {
        let image = image_with_branches();
        let mut cache = CodeCache::new();
        let (first, _) = cache.fetch(&image, image.entry).unwrap();
        let cmp_addr = first.next_addr();
        assert_eq!(cache.eject_blocks_containing(cmp_addr), 1);
        assert_eq!(cache.block_count(), 0);
        assert_eq!(cache.blocks_ejected, 1);
        // Re-fetching rebuilds.
        let (_, built) = cache.fetch(&image, image.entry).unwrap();
        assert!(built.is_some());
        assert_eq!(cache.blocks_built, 2);
    }

    #[test]
    fn fetch_outside_code_is_an_error() {
        let image = image_with_branches();
        let mut cache = CodeCache::new();
        assert!(matches!(
            cache.fetch(&image, 0x9_0000),
            Err(RuntimeError::AddressOutsideCode(_))
        ));
        assert_eq!(cache.table().fetch(0x9_0000), None);
        assert_eq!(cache.table().fetch(0), None, "below the segment");
    }

    #[test]
    fn flush_empties_the_cache() {
        let image = image_with_branches();
        let mut cache = CodeCache::new();
        cache.fetch(&image, image.entry).unwrap();
        cache.flush();
        assert_eq!(cache.block_count(), 0);
        let (_, built) = cache.fetch(&image, image.entry).unwrap();
        assert!(built.is_some());
    }

    /// Rebuilding a block that was built before reads its slots, not the image: handed
    /// the same shape of image with words that no longer decode, the flushed block
    /// still comes back whole — and counts as built, and tells the tracer. A start that
    /// never was built has only the decoder to go to.
    #[test]
    fn a_rebuilt_block_is_restamped_not_decoded() {
        let image = image_with_branches();
        let block = CodeCache::build_block(&image, image.entry).unwrap();
        let mut scrambled = image.clone();
        scrambled.code.iter_mut().for_each(|word| *word = !*word);
        assert!(CodeCache::build_block(&scrambled, image.entry).is_err());

        let mut cache = CodeCache::new();
        cache.fetch(&image, image.entry).unwrap();
        for rebuild in [CodeCache::flush, |cache: &mut CodeCache| {
            cache.eject_blocks_containing(cache.table.code_base);
        }] {
            rebuild(&mut cache);
            assert_eq!(cache.block_count(), 0);
            assert_eq!(
                cache.fetch(&scrambled, image.entry).unwrap(),
                (block.insts[0], Some(image.entry))
            );
            for iwa in &block.insts {
                assert_eq!(cache.table().fetch(iwa.addr), Some(*iwa));
            }
            assert_eq!(cache.table().fetch(block.end()), None);
            assert_eq!(cache.block_count(), 1);
        }
        assert_eq!((cache.blocks_built, cache.blocks_ejected), (3, 1));
        assert!(cache.fetch(&scrambled, block.end()).is_err());
    }

    /// The generation counter running out costs one pass over the table and nothing
    /// else: stale slots stay stale, and the cache goes on from generation 1.
    #[test]
    fn generation_wrap_leaves_no_slot_live() {
        let image = image_with_branches();
        let mut cache = CodeCache::new();
        cache.fetch(&image, image.entry).unwrap();
        cache.table.generation = u32::MAX;
        cache.fetch(&image, image.entry).unwrap();
        cache.flush();
        assert_eq!(cache.table.generation, 1);
        assert_eq!(cache.table().fetch(image.entry), None);
        let (_, built) = cache.fetch(&image, image.entry).unwrap();
        assert_eq!(built, Some(image.entry));
    }

    /// An inner block built first, then the block that runs into it from above: a
    /// patch in the shared tail ejects both, a patch above the inner block ejects the
    /// outer one only — and un-caches the inner block's instructions with it.
    #[test]
    fn overlapping_blocks_are_ejected_by_what_they_contain() {
        let image = image_with_branches();
        let outer = CodeCache::build_block(&image, image.entry).unwrap();
        let (mov, cmp, jcc) = (
            outer.insts[0].addr,
            outer.insts[1].addr,
            outer.insts[2].addr,
        );
        let mut cache = CodeCache::new();
        assert_eq!(cache.fetch(&image, cmp).unwrap().1, Some(cmp));
        assert_eq!(cache.fetch(&image, mov).unwrap().1, Some(mov));
        assert_eq!(cache.block_count(), 2);
        assert_eq!(cache.eject_blocks_containing(jcc), 2);
        assert_eq!(cache.block_count(), 0);

        cache.fetch(&image, cmp).unwrap();
        cache.fetch(&image, mov).unwrap();
        assert_eq!(cache.eject_blocks_containing(mov), 1);
        assert_eq!(
            cache.block_count(),
            1,
            "the inner block is still in the set"
        );
        assert_eq!(
            cache.table().fetch(cmp),
            None,
            "but its instructions are not"
        );
        assert_eq!(
            cache.eject_blocks_containing(jcc),
            1,
            "and it is still ejected"
        );
        assert_eq!(cache.blocks_ejected, 4);
        assert_eq!(cache.eject_blocks_containing(jcc), 0);
    }

    /// The cache as it was before the dense table — two hash maps and a linear search
    /// per ejection — kept as the model the table is held to.
    #[derive(Default)]
    struct ModelCache {
        blocks: HashMap<Addr, BasicBlock>,
        inst_index: HashMap<Addr, InstWithAddr>,
        blocks_built: u64,
        blocks_ejected: u64,
    }

    impl ModelCache {
        fn fetch(
            &mut self,
            image: &BinaryImage,
            addr: Addr,
        ) -> Result<(InstWithAddr, Option<Addr>), RuntimeError> {
            if let Some(iwa) = self.inst_index.get(&addr) {
                return Ok((*iwa, None));
            }
            let block = CodeCache::build_block(image, addr)?;
            let start = block.start;
            for iwa in &block.insts {
                self.inst_index.insert(iwa.addr, *iwa);
            }
            let first = block.insts[0];
            self.blocks.insert(start, block);
            self.blocks_built += 1;
            Ok((first, Some(start)))
        }

        fn eject_blocks_containing(&mut self, addr: Addr) -> usize {
            let stale: Vec<Addr> = self
                .blocks
                .values()
                .filter(|b| b.insts.iter().any(|i| i.addr == addr))
                .map(|b| b.start)
                .collect();
            for start in &stale {
                if let Some(block) = self.blocks.remove(start) {
                    for iwa in &block.insts {
                        self.inst_index.remove(&iwa.addr);
                    }
                    self.blocks_ejected += 1;
                }
            }
            stale.len()
        }

        fn flush(&mut self) {
            self.blocks.clear();
            self.inst_index.clear();
        }
    }

    /// Where the steps aim: block starts, the instructions inside them, the words inside
    /// instructions, the last code word and the first address past the segment.
    fn biased_addr(image: &BinaryImage, pick: u16) -> Addr {
        let words = image.code.len() as Addr;
        match pick % 8 {
            0 => image.layout.code_base + words - 1,
            1 => image.layout.code_base + words,
            _ => image.layout.code_base + (pick as Addr / 8) % words,
        }
    }

    /// A place in a block that was built before, which is where a re-stamp can go wrong:
    /// the block's start, an instruction further along it, or a word inside one of its
    /// instructions (which decodes on its own terms and was, most likely, never filled).
    fn revisit(image: &BinaryImage, built: &[Addr], pick: u16) -> Addr {
        let Some(&start) = built.get((pick / 64) as usize % built.len().max(1)) else {
            return image.entry;
        };
        let block = CodeCache::build_block(image, start).unwrap();
        let inst = block.insts[(pick / 4) as usize % 16 % block.insts.len()];
        match pick % 4 {
            0 => start,
            1 | 2 => inst.addr,
            _ => inst.addr + inst.len.min(2) - 1,
        }
    }

    // Hand-made mutants of the rebuild path, each of which fails the proptest below and
    // `a_rebuilt_block_is_restamped_not_decoded`:
    //  * a re-stamp that stops one instruction early (`stamp_block` leaving a block's
    //    last slot stale): the next fetch there hits in the model and builds here;
    //  * a re-stamp that skips the live-block insert: `block_count` differs at once, and
    //    a later `eject_blocks_containing` counts one too few;
    //  * a re-stamp that counts no `blocks_built`;
    //  * a re-stamp that reports no newly built start (the tracer would hear nothing).
    // And one only the unit test and `tests/run_allocations.rs` see, the model being
    // blind to it by construction: `filled` ignored, every rebuild decoding again.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Random fetches, ejections and flushes agree with the hash-map model after
        /// every step: the same instruction or error, the same newly built block, the
        /// same return from an ejection, the same counters and the same live blocks. A
        /// third of the steps go back to a block built earlier — most of them flushed or
        /// ejected since — at its start, inside it, and inside one of its instructions.
        #[test]
        fn dense_cache_matches_the_hash_map_model(
            shape in prop::collection::vec((any::<u8>(), any::<u8>()), 4..60),
            steps in prop::collection::vec((0u8..16, any::<u16>()), 1..300),
        ) {
            let image = random_image(&shape);
            let (mut cache, mut model) = (CodeCache::new(), ModelCache::default());
            let mut built: Vec<Addr> = Vec::new();
            for &(op, pick) in &steps {
                let addr = match op {
                    10.. => revisit(&image, &built, pick),
                    _ => biased_addr(&image, pick),
                };
                match op {
                    0 => {
                        cache.flush();
                        model.flush();
                    }
                    1..=4 => prop_assert_eq!(
                        cache.eject_blocks_containing(addr),
                        model.eject_blocks_containing(addr)
                    ),
                    _ => match (cache.fetch(&image, addr), model.fetch(&image, addr)) {
                        (Ok(got), Ok(want)) => {
                            prop_assert_eq!(got, want);
                            built.extend(got.1);
                        }
                        (Err(got), Err(want)) => prop_assert_eq!(got, want),
                        (got, want) => prop_assert!(false, "{got:?} vs {want:?} at {addr:#x}"),
                    },
                }
                prop_assert_eq!(cache.blocks_built, model.blocks_built);
                prop_assert_eq!(cache.blocks_ejected, model.blocks_ejected);
                prop_assert_eq!(cache.block_count(), model.blocks.len());
            }
            // What is cached at the end, address by address.
            for offset in 0..=image.code.len() as Addr {
                let addr = image.layout.code_base + offset;
                prop_assert_eq!(cache.table().fetch(addr), model.inst_index.get(&addr).copied());
            }
        }

        /// The pre-built table is live exactly where a cold cache's fetch succeeds, and
        /// holds the same instruction there.
        #[test]
        fn prebuilt_table_matches_a_cold_fetch_everywhere(
            shape in prop::collection::vec((any::<u8>(), any::<u8>()), 4..60),
        ) {
            let image = random_image(&shape);
            let table = CodeTable::prebuilt(&image);
            prop_assert_eq!(table.len(), image.code.len());
            for offset in 0..=image.code.len() as Addr {
                let addr = image.layout.code_base + offset;
                let cold = CodeCache::new().fetch(&image, addr).ok().map(|(iwa, _)| iwa);
                prop_assert_eq!(table.fetch(addr), cold);
            }
        }
    }
}
