//! One program image shared by an arbitrary number of execution environments.
//!
//! A fleet of simulated members all run the *same* binary. The classic
//! [`ManagedExecutionEnvironment`](crate::ManagedExecutionEnvironment) owns a private
//! image copy and a private code cache, and every run copies the image's code and data
//! pages into its own [`Memory`](crate::Memory) — O(members · image) memory, and a
//! cache warm-up per environment. [`SharedProgram`] factors all of the immutable state
//! out once per fleet:
//!
//! * the [`BinaryImage`] itself (`Arc`, never cloned),
//! * the **pristine address space** — the words
//!   [`Memory::load`](crate::Memory::load) would produce — which every machine's
//!   memory reads from ([`Memory::cow`](crate::Memory::cow)); a run owns only the
//!   pages it writes, not even the image's,
//! * the **index**: a [`CodeTable`] with every code address decoded up front
//!   ([`CodeTable::prebuilt`]), replacing the per-run warm-up of a private
//!   [`CodeCache`](crate::CodeCache).
//!
//! Both shapes run on the one paged memory: set-up is O(pages touched) either way.
//!
//! The index is not a second instruction store beside the cache: it is the cache's own
//! slot table, filled once instead of a block at a time and never ejected from or
//! flushed, so the run loops fetch from either through the same call. It is exactly
//! faithful to the classic cache's fetch semantics: the cache serves the context-free
//! decode at the fetched address and errors iff
//! [`CodeCache::build_block`](crate::CodeCache::build_block) errors from that address
//! (a cache hit at an address implies the whole suffix of its block decodes, so the
//! error set is independent of cache state). Patches reach a shared-program environment
//! through its own [`HookRegistry`](crate::HookRegistry) site table; nothing is rebuilt
//! because nothing the index holds depends on them.

use crate::cache::CodeTable;
use cv_isa::{BinaryImage, Word};
use std::sync::Arc;

/// The shared, immutable half of a fleet's execution state: image, pristine address
/// space, and pre-decoded code. Clones are `Arc` bumps.
#[derive(Debug, Clone)]
pub struct SharedProgram {
    image: Arc<BinaryImage>,
    pristine: Arc<[Word]>,
    index: Arc<CodeTable>,
}

impl SharedProgram {
    /// Load and index `image` once.
    pub fn new(image: BinaryImage) -> SharedProgram {
        let layout = image.layout;
        let mut pristine: Arc<[Word]> = std::iter::repeat_n(0, layout.total_words()).collect();
        let words = Arc::get_mut(&mut pristine).expect("not yet shared");
        let (cb, db) = (layout.code_base as usize, layout.data_base as usize);
        words[cb..cb + image.code.len()].copy_from_slice(&image.code);
        words[db..db + image.data.len()].copy_from_slice(&image.data);
        let index = Arc::new(CodeTable::prebuilt(&image));
        SharedProgram {
            image: Arc::new(image),
            pristine,
            index,
        }
    }

    /// The shared image.
    pub fn image(&self) -> &Arc<BinaryImage> {
        &self.image
    }

    /// The pristine loaded address space (what [`Memory::load`](crate::Memory::load) produces).
    pub fn pristine(&self) -> &Arc<[Word]> {
        &self.pristine
    }

    /// The pre-decoded code index.
    pub fn index(&self) -> &Arc<CodeTable> {
        &self.index
    }

    /// Bytes resident in the shared state (image words + pristine space + index),
    /// paid once per fleet regardless of member count.
    pub fn resident_bytes(&self) -> usize {
        let word = std::mem::size_of::<Word>();
        let image = (self.image.code.len() + self.image.data.len()) * word;
        image + self.pristine.len() * word + self.index.resident_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CodeCache;
    use crate::error::RuntimeError;
    use crate::memory::Memory;
    use cv_isa::{Addr, Cond, ProgramBuilder, Reg};

    fn image() -> BinaryImage {
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

    /// The index agrees with a fresh-cache fetch at every single code address — both
    /// on the decoded instruction and on which addresses error.
    #[test]
    fn index_matches_classic_fetch_everywhere() {
        let image = image();
        let program = SharedProgram::new(image.clone());
        for offset in 0..image.code.len() {
            let addr = image.layout.code_base + offset as Addr;
            let mut cache = CodeCache::new();
            match cache.fetch(&image, addr) {
                Ok((iwa, _)) => assert_eq!(program.index().fetch(addr), Some(iwa)),
                Err(RuntimeError::AddressOutsideCode(_)) => unreachable!(),
                Err(_) => assert_eq!(program.index().fetch(addr), None),
            }
        }
        assert_eq!(program.index().len(), image.code.len());
        // Outside the segment a fetch is a miss, not a panic.
        assert_eq!(program.index().fetch(image.code_end()), None);
        assert_eq!(program.index().fetch(image.layout.code_base - 1), None);
        assert_eq!(program.index().fetch(image.layout.heap_base), None);
    }

    /// The index costs what it did as a vector of optional instructions: 32 bytes a
    /// code word, the figure the fleets' `bytes_per_member` was measured with.
    #[test]
    fn resident_bytes_count_the_index_at_32_bytes_a_word() {
        let image = image();
        let words = image.code.len() + image.data.len() + image.layout.total_words();
        let program = SharedProgram::new(image.clone());
        assert_eq!(
            program.resident_bytes(),
            words * std::mem::size_of::<Word>() + image.code.len() * 32
        );
    }

    #[test]
    fn pristine_matches_memory_load() {
        let image = image();
        let program = SharedProgram::new(image.clone());
        let loaded = Memory::load(&image);
        assert_eq!(
            program.pristine().as_ref(),
            &loaded.read_slice(0, loaded.len()).unwrap()[..]
        );
        assert!(program.resident_bytes() > 0);
    }
}
