//! The guest's word-granular memory: one page table over an optional shared base.
//!
//! The address space is cut into [`PAGE_WORDS`]-word pages. A page absent from the
//! table reads from the shared base if there is one and as zero otherwise; the first
//! write to a page materialises exactly that page (copied from the base, or
//! zero-filled). Creating a memory therefore costs the table alone, loading an image
//! costs the pages its code and data occupy, and thousands of short-lived machines can
//! share one loaded image behind an `Arc` — a run owns only the pages it touched.
//!
//! A memory outlives the run that dirtied it. It keeps the ids of the pages it
//! materialised in `owned`, in the order they appeared, and [`Memory::release`] walks
//! that list — never the table — to put every one of them back to absent: what the
//! next run pays for is what the last one touched. The buffers of the pages given up
//! go to a small free list, `spare`, that the next materialisations draw from. A
//! reused buffer still holds the last run's words, so it is refilled **in full** from
//! the base (or with zeros) before it becomes a page: a refill that skipped any word
//! would hand one run's heap to the next. The list keeps at most [`MAX_SPARE_PAGES`]
//! buffers and frees the rest, so one run that touched hundreds of pages does not pin
//! them for the life of its environment; and it holds whole pages only — the short
//! last page of a ragged layout is freed and allocated afresh, so that any spare fits
//! any page it is asked to become.

use crate::error::CrashKind;
use cv_isa::{Addr, BinaryImage, MemoryLayout, Segment, Word};
use std::sync::Arc;

/// Page size in words (2 KiB pages at 4 bytes/word).
const PAGE_SHIFT: usize = 9;
/// Words per page.
pub const PAGE_WORDS: usize = 1 << PAGE_SHIFT;
const PAGE_MASK: usize = PAGE_WORDS - 1;
/// Page buffers a memory keeps for reuse across [`Memory::release`] (32 KiB): three times
/// what a benign browser page touches, an eighth of what the 325403 exploit's copy does.
const MAX_SPARE_PAGES: usize = 16;

/// The guest memory: a flat address space of 32-bit words, partitioned by [`MemoryLayout`].
///
/// All accesses are bounds- and segment-checked; violations are reported as
/// [`CrashKind`] values so the environment can turn them into guest crashes rather than
/// host panics. Writes into the code segment always crash (W^X).
#[derive(Debug, Clone)]
pub struct Memory {
    layout: MemoryLayout,
    /// Shared read-only words that absent pages read from; without one they read as 0.
    base: Option<Arc<[Word]>>,
    /// Privately owned pages by page id, `None` until first written. The last page is
    /// short when the layout is not a multiple of [`PAGE_WORDS`].
    pages: Vec<Option<Box<[Word]>>>,
    /// Ids of the pages that are `Some`, in the order they were materialised.
    owned: Vec<usize>,
    /// Whole-page buffers given up by [`Memory::release`], contents stale.
    spare: Vec<Box<[Word]>>,
}

impl Memory {
    /// Create a zeroed memory for `layout`.
    pub fn new(layout: MemoryLayout) -> Memory {
        Memory {
            layout,
            base: None,
            pages: vec![None; layout.total_words().div_ceil(PAGE_WORDS)],
            owned: Vec::new(),
            spare: Vec::new(),
        }
    }

    /// Create a memory with the image's code and data loaded at their segment bases.
    pub fn load(image: &BinaryImage) -> Memory {
        let mut mem = Memory::new(image.layout);
        mem.reset(image);
        mem
    }

    /// Create a memory over a shared pristine base (the words of [`Memory::load`] for
    /// the same image, frozen behind an `Arc`).
    ///
    /// Reads are served from `base` until a page is written; observable behaviour is
    /// identical to [`Memory::load`], and `base` is never written.
    ///
    /// # Panics
    ///
    /// Panics if `base` does not cover exactly `layout.total_words()` words.
    pub fn cow(layout: MemoryLayout, base: Arc<[Word]>) -> Memory {
        assert_eq!(
            base.len(),
            layout.total_words(),
            "CoW base must cover the whole layout"
        );
        Memory {
            base: Some(base),
            ..Memory::new(layout)
        }
    }

    /// Give up every owned page: each becomes absent again and its buffer goes to the
    /// spare list or, beyond [`MAX_SPARE_PAGES`] and for a short last page, is freed.
    /// Costs the pages owned, not the table.
    pub(crate) fn release(&mut self) {
        for pid in self.owned.drain(..) {
            match self.pages[pid].take() {
                Some(page) if page.len() == PAGE_WORDS && self.spare.len() < MAX_SPARE_PAGES => {
                    self.spare.push(page)
                }
                _ => {}
            }
        }
    }

    /// Put the memory back to what [`Memory::load`] (without a base) or [`Memory::cow`]
    /// (over one, which already holds `image`) produced: no page the last user wrote
    /// survives, and a memory that reads from no base has `image`'s code and data
    /// copied back in.
    pub(crate) fn reset(&mut self, image: &BinaryImage) {
        self.release();
        if self.base.is_none() {
            self.copy_in(image.layout.code_base as usize, &image.code);
            self.copy_in(image.layout.data_base as usize, &image.data);
        }
    }

    /// The layout this memory was created with.
    #[inline]
    pub fn layout(&self) -> MemoryLayout {
        self.layout
    }

    /// Total words privately owned by this memory — the resident cost of the pages it
    /// has materialised, beyond any shared base and any spare buffers.
    pub fn owned_words(&self) -> usize {
        let owned = self.owned.iter().flat_map(|&pid| &self.pages[pid]);
        owned.map(|page| page.len()).sum()
    }

    #[inline]
    fn word(&self, idx: usize) -> Word {
        let page = self.pages[idx >> PAGE_SHIFT].as_deref();
        match (page, self.base.as_deref()) {
            (Some(page), _) => page[idx & PAGE_MASK],
            (None, Some(base)) => base[idx],
            (None, None) => {
                assert!(idx < self.len(), "index {idx} beyond the layout");
                0
            }
        }
    }

    /// The private copy of page `pid`, materialised on first use.
    #[inline]
    fn page_mut(&mut self, pid: usize) -> &mut [Word] {
        if self.pages[pid].is_none() {
            self.materialise(pid);
        }
        self.pages[pid].as_deref_mut().expect("materialised above")
    }

    /// Give page `pid` its private copy, from the base (or zeros) — in a spare buffer
    /// when there is one, overwriting all of it.
    #[cold]
    fn materialise(&mut self, pid: usize) {
        let start = pid << PAGE_SHIFT;
        let end = (start + PAGE_WORDS).min(self.layout.total_words());
        let reused = if end - start == PAGE_WORDS {
            self.spare.pop()
        } else {
            None
        };
        let page = match (reused, self.base.as_deref()) {
            (Some(mut page), Some(base)) => {
                page.copy_from_slice(&base[start..end]);
                page
            }
            (Some(mut page), None) => {
                page.fill(0);
                page
            }
            (None, Some(base)) => base[start..end].into(),
            (None, None) => vec![0; end - start].into(),
        };
        self.pages[pid] = Some(page);
        self.owned.push(pid);
    }

    #[inline]
    fn word_mut(&mut self, idx: usize) -> &mut Word {
        &mut self.page_mut(idx >> PAGE_SHIFT)[idx & PAGE_MASK]
    }

    /// Copy `src` to raw index `at`, page by page, bypassing protection (image load).
    fn copy_in(&mut self, mut at: usize, mut src: &[Word]) {
        while !src.is_empty() {
            let off = at & PAGE_MASK;
            let (chunk, rest) = src.split_at(src.len().min(PAGE_WORDS - off));
            self.page_mut(at >> PAGE_SHIFT)[off..off + chunk.len()].copy_from_slice(chunk);
            at += chunk.len();
            src = rest;
        }
    }

    /// Read the word at `addr`.
    #[inline]
    pub fn read(&self, addr: Addr) -> Result<Word, CrashKind> {
        if !self.layout.is_mapped(addr) {
            return Err(CrashKind::UnmappedAccess { addr });
        }
        Ok(self.word(addr as usize))
    }

    /// Write the word at `addr`.
    ///
    /// Writes to the code segment crash (the image is mapped read-only/execute, as in a
    /// normal Win32 process).
    #[inline]
    pub fn write(&mut self, addr: Addr, value: Word) -> Result<(), CrashKind> {
        match self.layout.segment_of(addr) {
            Segment::Unmapped => Err(CrashKind::UnmappedAccess { addr }),
            Segment::Code => Err(CrashKind::CodeWrite { addr }),
            _ => {
                *self.word_mut(addr as usize) = value;
                Ok(())
            }
        }
    }

    /// Read without segment checks (used by diagnostics and the heap allocator, which
    /// operates entirely inside the heap segment).
    #[inline]
    pub(crate) fn read_raw(&self, addr: Addr) -> Word {
        self.word(addr as usize)
    }

    /// Write without segment checks (heap allocator book-keeping).
    #[inline]
    pub(crate) fn write_raw(&mut self, addr: Addr, value: Word) {
        *self.word_mut(addr as usize) = value;
    }

    /// Snapshot `len` words starting at `addr` (diagnostics and tests).
    pub fn read_slice(&self, addr: Addr, len: usize) -> Result<Vec<Word>, CrashKind> {
        let end = addr as usize + len;
        if end > self.len() {
            return Err(CrashKind::UnmappedAccess { addr: end as Addr });
        }
        let mut out = Vec::with_capacity(len);
        let mut at = addr as usize;
        while at < end {
            let off = at & PAGE_MASK;
            let n = (end - at).min(PAGE_WORDS - off);
            let page = self.pages[at >> PAGE_SHIFT].as_deref();
            match (page, self.base.as_deref()) {
                (Some(page), _) => out.extend_from_slice(&page[off..off + n]),
                (None, Some(base)) => out.extend_from_slice(&base[at..at + n]),
                (None, None) => out.resize(out.len() + n, 0),
            }
            at += n;
        }
        Ok(out)
    }

    /// Total mapped words.
    pub fn len(&self) -> usize {
        self.layout.total_words()
    }

    /// Never empty for a valid layout, but provided for completeness.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::CANARY;
    use crate::machine::{CopyOutcome, Machine, MemFault};
    use cv_isa::ProgramBuilder;
    use proptest::prelude::*;

    fn tiny_image() -> BinaryImage {
        let mut b = ProgramBuilder::new();
        let main = b.function("main");
        b.halt();
        b.set_entry(main);
        b.data_words(&[7, 8, 9]);
        b.build().unwrap()
    }

    #[test]
    fn load_places_code_and_data() {
        let image = tiny_image();
        let mem = Memory::load(&image);
        assert_eq!(mem.read(image.layout.code_base).unwrap(), image.code[0]);
        assert_eq!(mem.read(image.layout.data_base).unwrap(), 7);
        assert_eq!(mem.read(image.layout.data_base + 2).unwrap(), 9);
    }

    #[test]
    fn unmapped_read_is_a_crash() {
        let mem = Memory::new(MemoryLayout::default());
        assert!(matches!(mem.read(0), Err(CrashKind::UnmappedAccess { .. })));
        let end = MemoryLayout::default().stack_end();
        assert!(matches!(
            mem.read(end),
            Err(CrashKind::UnmappedAccess { .. })
        ));
    }

    #[test]
    fn code_writes_are_rejected() {
        let image = tiny_image();
        let mut mem = Memory::load(&image);
        let err = mem.write(image.layout.code_base, 0xdead).unwrap_err();
        assert!(matches!(err, CrashKind::CodeWrite { .. }));
    }

    #[test]
    fn heap_and_stack_writes_succeed() {
        let layout = MemoryLayout::default();
        let mut mem = Memory::new(layout);
        mem.write(layout.heap_base + 10, 123).unwrap();
        assert_eq!(mem.read(layout.heap_base + 10).unwrap(), 123);
        mem.write(layout.stack_base + 10, 456).unwrap();
        assert_eq!(mem.read(layout.stack_base + 10).unwrap(), 456);
    }

    #[test]
    fn read_slice_bounds_checked() {
        let layout = MemoryLayout::default();
        let mem = Memory::new(layout);
        assert!(mem.read_slice(layout.stack_end() - 2, 4).is_err());
        assert_eq!(mem.read_slice(layout.heap_base, 3).unwrap(), vec![0, 0, 0]);
    }

    /// A memory over the pristine image behaves exactly like `Memory::load`.
    #[test]
    fn cow_memory_matches_flat_load() {
        let image = tiny_image();
        let flat = Memory::load(&image);
        let base: Arc<[Word]> = flat.read_slice(0, flat.len()).unwrap().into();
        let mut cow = Memory::cow(image.layout, base.clone());

        // Reads fall through to the shared base.
        assert_eq!(cow.read(image.layout.code_base).unwrap(), image.code[0]);
        assert_eq!(cow.read(image.layout.data_base).unwrap(), 7);
        assert_eq!(
            cow.owned_words(),
            0,
            "nothing copied before the first write"
        );

        // Code protection and unmapped checks are unchanged.
        assert!(matches!(
            cow.write(image.layout.code_base, 1),
            Err(CrashKind::CodeWrite { .. })
        ));
        assert!(matches!(cow.read(0), Err(CrashKind::UnmappedAccess { .. })));

        // The first write materializes exactly one page, seeded from the base.
        let heap = image.layout.heap_base;
        cow.write(heap + 1, 99).unwrap();
        assert_eq!(cow.read(heap + 1).unwrap(), 99);
        assert_eq!(
            cow.read(heap).unwrap(),
            0,
            "rest of the page came from base"
        );
        assert_eq!(cow.owned_words(), PAGE_WORDS);

        // Writes never leak into the shared base: a second overlay sees pristine data.
        let data = image.layout.data_base;
        cow.write(data, 1234).unwrap();
        assert_eq!(cow.read(data).unwrap(), 1234);
        assert_eq!(Memory::cow(image.layout, base).read(data).unwrap(), 7);
    }

    /// Segments separated by unmapped holes, ending (at word 3,333) inside a page: the
    /// stack is exactly the short last page.
    fn ragged_layout() -> MemoryLayout {
        MemoryLayout {
            code_base: 700,
            code_size: 600,
            data_base: 1400,
            data_size: 500,
            heap_base: 2000,
            heap_size: 1000,
            stack_base: 3072,
            stack_size: 261,
        }
    }

    /// An image of arbitrary (never executed) words filling `code` and `data` words of
    /// its segments, so both straddle page boundaries.
    fn filled_image(layout: MemoryLayout, code: u32, data: u32) -> BinaryImage {
        BinaryImage {
            layout,
            code: (0..code).map(|i| 0xC0DE_0000 | i).collect(),
            data: (0..data).map(|i| 0xDA7A_0000 | i).collect(),
            entry: layout.code_base,
        }
    }

    /// Words of the pages that `len` words starting at `start` occupy.
    fn words_of_pages(layout: MemoryLayout, start: Addr, len: usize) -> usize {
        let first = start as usize >> PAGE_SHIFT;
        let last = (start as usize + len - 1) >> PAGE_SHIFT;
        (first..=last)
            .map(|pid| PAGE_WORDS.min(layout.total_words() - (pid << PAGE_SHIFT)))
            .sum()
    }

    /// Set-up is O(touched): a zeroed memory owns nothing and a loaded one owns exactly
    /// the pages its code and data occupy (disjoint here, so the sums add).
    #[test]
    fn load_owns_only_the_image_pages() {
        assert_eq!(Memory::new(MemoryLayout::default()).owned_words(), 0);
        let default = MemoryLayout::default();
        for image in [
            filled_image(default, 1300, 700),
            filled_image(ragged_layout(), 200, 400),
        ] {
            let mem = Memory::load(&image);
            let layout = image.layout;
            assert_eq!(
                mem.owned_words(),
                words_of_pages(layout, layout.code_base, image.code.len())
                    + words_of_pages(layout, layout.data_base, image.data.len())
            );
            assert_eq!(
                mem.read_slice(layout.code_base, image.code.len()).unwrap(),
                image.code
            );
            assert_eq!(
                mem.read_slice(layout.data_base, image.data.len()).unwrap(),
                image.data
            );
        }
    }

    /// Releasing gives up every page — the table is all-absent again and `owned`
    /// empty — keeps at most the cap of their buffers, and never the short last page.
    #[test]
    fn release_empties_the_table_and_bounds_the_spare_list() {
        let layout = MemoryLayout::default();
        let mut mem = Memory::new(layout);
        for page in 0..MAX_SPARE_PAGES + 9 {
            mem.write(layout.heap_base + (page * PAGE_WORDS) as Addr, 1)
                .unwrap();
        }
        assert_eq!(mem.owned_words(), (MAX_SPARE_PAGES + 9) * PAGE_WORDS);
        mem.release();
        assert_eq!(mem.owned_words(), 0);
        assert!(mem.owned.is_empty() && mem.pages.iter().all(Option::is_none));
        assert_eq!(mem.spare.len(), MAX_SPARE_PAGES);

        let ragged = ragged_layout();
        let mut mem = Memory::new(ragged);
        mem.write(ragged.stack_end() - 1, 1).unwrap();
        mem.write(ragged.heap_base, 1).unwrap();
        assert_eq!(
            mem.owned_words(),
            PAGE_WORDS + ragged.total_words() % PAGE_WORDS
        );
        mem.release();
        assert_eq!(
            mem.spare.len(),
            1,
            "the heap page, not the short stack page"
        );
        assert!(mem.spare.iter().all(|page| page.len() == PAGE_WORDS));
    }

    /// A page built in a reused buffer holds nothing of the page the buffer was: every
    /// word is the base's (or zero), wherever the two pages differ or agree.
    #[test]
    fn a_reused_buffer_is_refilled_in_full() {
        let image = filled_image(MemoryLayout::default(), 1300, 700);
        let layout = image.layout;
        let pristine = Memory::load(&image);
        let base: Arc<[Word]> = pristine.read_slice(0, pristine.len()).unwrap().into();
        for mut mem in [Memory::load(&image), Memory::cow(layout, base)] {
            for i in 0..PAGE_WORDS as Addr {
                mem.write(layout.heap_base + i, 0xAAAA_0000 | i).unwrap();
            }
            mem.reset(&image);
            assert!(!mem.spare.is_empty());
            // The dirty buffer comes back as the first page materialised: a code page
            // whose tail is zeros when the image is loaded, the data page — part image,
            // part zeros — over the base. Then a heap page and a stack page.
            for addr in [
                layout.data_base + 600,
                layout.heap_base + 5000,
                layout.stack_base,
            ] {
                mem.write(addr, 5).unwrap();
            }
            let mut want = pristine.read_slice(0, pristine.len()).unwrap();
            for addr in [
                layout.data_base + 600,
                layout.heap_base + 5000,
                layout.stack_base,
            ] {
                want[addr as usize] = 5;
            }
            assert_eq!(mem.read_slice(0, mem.len()).unwrap(), want);
        }
    }

    /// A raw index beyond the layout is a host bug and panics on every backing state —
    /// also inside the short last page, where the page table alone would not notice.
    #[test]
    fn out_of_range_raw_index_panics() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let layout = ragged_layout();
        let total = layout.total_words() as Addr;
        let based = || Memory::cow(layout, vec![0; total as usize].into());
        let touched = |mut mem: Memory| {
            mem.write(total - 1, 1).unwrap();
            mem
        };
        for mem in [
            Memory::new(layout),
            based(),
            touched(Memory::new(layout)),
            touched(based()),
        ] {
            assert_eq!(mem.read_raw(total - 1), mem.read(total - 1).unwrap());
            for idx in [total, total + 1, (PAGE_WORDS * mem.pages.len()) as Addr] {
                assert!(catch_unwind(|| mem.read_raw(idx)).is_err());
                let mut mem = mem.clone();
                assert!(catch_unwind(AssertUnwindSafe(|| mem.write_raw(idx, 1))).is_err());
            }
        }
    }

    /// The reference the paged memory is held to: every word in one `Vec`, the same
    /// segment rules, and Heap Guard over a mirror of the machine's allocation map
    /// (where the allocator *places* a block is the machine's answer — `heap.rs` owns
    /// that — while which words then hold canaries and what each access returns is
    /// computed here).
    struct Model {
        layout: MemoryLayout,
        words: Vec<Word>,
        live: std::collections::BTreeMap<Addr, u32>,
        heap_guard: bool,
    }

    impl Model {
        fn read(&self, addr: Addr) -> Result<Word, MemFault> {
            match self.layout.segment_of(addr) {
                Segment::Unmapped => Err(CrashKind::UnmappedAccess { addr }.into()),
                _ => Ok(self.words[addr as usize]),
            }
        }

        fn write(&mut self, addr: Addr, value: Word) -> Result<(), MemFault> {
            let in_live_block = |(&start, &size): (&Addr, &u32)| addr < start + size;
            match self.layout.segment_of(addr) {
                Segment::Unmapped => Err(CrashKind::UnmappedAccess { addr }.into()),
                Segment::Code => Err(CrashKind::CodeWrite { addr }.into()),
                Segment::Heap
                    if self.heap_guard
                        && self.words[addr as usize] == CANARY
                        && !self
                            .live
                            .range(..=addr)
                            .next_back()
                            .is_some_and(in_live_block) =>
                {
                    Err(MemFault::HeapGuardViolation { addr })
                }
                _ => {
                    self.words[addr as usize] = value;
                    Ok(())
                }
            }
        }

        fn read_slice(&self, addr: Addr, len: usize) -> Result<Vec<Word>, CrashKind> {
            let end = addr as usize + len;
            match self.words.get(addr as usize..end) {
                Some(words) => Ok(words.to_vec()),
                None => Err(CrashKind::UnmappedAccess { addr: end as Addr }),
            }
        }

        fn allocated(&mut self, user_start: Addr, size: u32) {
            self.words[user_start as usize - 1] = CANARY;
            self.words[(user_start + size) as usize] = CANARY;
            self.live.insert(user_start, size);
        }

        fn free(&mut self, addr: Addr) -> Result<(), MemFault> {
            match self.live.remove(&addr) {
                Some(_) => Ok(()),
                None => Err(CrashKind::InvalidFree { addr }.into()),
            }
        }

        fn copy(&mut self, dst: Addr, src: Addr, len: u64) -> Result<CopyOutcome, MemFault> {
            for copied in 0..len {
                let (s, d) = (
                    src.wrapping_add(copied as u32),
                    dst.wrapping_add(copied as u32),
                );
                let moved = self.read(s).and_then(|value| self.write(d, value));
                match moved {
                    Ok(()) => {}
                    Err(MemFault::Crash(_)) => {
                        return Ok(CopyOutcome {
                            copied,
                            clamped: true,
                        })
                    }
                    Err(violation) => return Err(violation),
                }
            }
            Ok(CopyOutcome {
                copied: len,
                clamped: false,
            })
        }
    }

    /// Turn a raw draw into an address biased to where the paged backing could go
    /// wrong: two words either side of every segment edge, of the image's own ends,
    /// of word 0 (so also the top of the `u32` range) and of the last word of the
    /// layout; two words either side of any page boundary; the first words of the heap
    /// (canaries and live blocks); and anywhere up to a page beyond the layout.
    fn biased_addr(image: &BinaryImage, raw: u32) -> Addr {
        let layout = image.layout;
        let total = layout.total_words() as u32;
        let edges = [
            0,
            layout.code_base,
            image.code_end(),
            layout.code_end(),
            layout.data_base,
            layout.data_base + image.data.len() as u32,
            layout.data_end(),
            layout.heap_base,
            layout.heap_end(),
            layout.stack_base,
            total,
        ];
        let (kind, pick) = (raw % 4, raw >> 8);
        let near = |addr: u32| addr.wrapping_add((raw >> 2) % 5).wrapping_sub(2);
        match kind {
            0 => near(edges[pick as usize % edges.len()]),
            1 => near(pick % (total / PAGE_WORDS as u32 + 2) * PAGE_WORDS as u32),
            2 => layout.heap_base + pick % 96,
            _ => pick % (total + PAGE_WORDS as u32),
        }
    }

    type RawOp = (u8, u32, u32, u32);

    /// `RawOp` kinds below this are `kind % 6`; this one starts the machine over.
    const RECYCLE: u8 = 24;

    /// Drive `ops` through `machine` — built for `image` — and through the model,
    /// comparing every answer and, at the end, every word. [`RECYCLE`] resets the
    /// machine in place, and the model to what a newly built one would be: the image's
    /// words (or zeros) in a fresh `Vec`, no allocation live, and the heap handing out
    /// its first word again.
    fn run_differential(image: &BinaryImage, mut machine: Machine, ops: &[RawOp]) {
        let layout = image.layout;
        let total = layout.total_words();
        let pristine = machine.memory().read_slice(0, total).unwrap();
        let heap_guard = machine.heap_guard_enabled();
        let mut model = Model {
            layout,
            words: pristine.clone(),
            live: Default::default(),
            heap_guard,
        };
        let mut blocks: Vec<Addr> = Vec::new();
        let mut heap_untouched = true;
        for &(kind, a, b, c) in ops {
            let addr = biased_addr(image, a);
            if kind == RECYCLE {
                machine.reset(image, &[], heap_guard);
                model.words.clone_from(&pristine);
                model.live.clear();
                heap_untouched = true;
                assert_eq!(machine.live_allocations(), 0);
                continue;
            }
            match kind % 6 {
                0 => assert_eq!(machine.read_mem(addr), model.read(addr)),
                1 => assert_eq!(machine.write_mem(addr, b), model.write(addr, b)),
                2 => {
                    let len = b as usize % (3 * PAGE_WORDS);
                    assert_eq!(
                        machine.memory().read_slice(addr, len),
                        model.read_slice(addr, len)
                    );
                }
                3 => {
                    let size = b % 40;
                    match machine.heap_alloc(size) {
                        Ok(user_start) => {
                            if std::mem::take(&mut heap_untouched) {
                                assert_eq!(user_start, layout.heap_base + 1);
                            }
                            model.allocated(user_start, size.max(1));
                            blocks.push(user_start);
                        }
                        Err(fault) => assert_eq!(fault, CrashKind::OutOfMemory.into()),
                    }
                }
                4 => {
                    // Mostly a block handed out earlier (possibly freed since, or lost
                    // to a reset), else any address.
                    let ptr = match blocks.get(b as usize % (blocks.len() + 1)) {
                        Some(&block) => block,
                        None => addr,
                    };
                    assert_eq!(machine.heap_free(ptr), model.free(ptr));
                }
                _ => {
                    let (dst, len) = (biased_addr(image, b), c as u64 % 1500);
                    assert_eq!(
                        machine.copy_words(dst, addr, len),
                        model.copy(dst, addr, len)
                    );
                }
            }
        }
        assert_eq!(machine.memory().read_slice(0, total).unwrap(), model.words);
    }

    // Hand-made mutants of `release`, `reset` and `page_mut`, each of which fails the
    // proptest below (and the unit test named, where one aims at it):
    //  * a reused buffer refilled only in part, from the base or with zeros
    //    (`a_reused_buffer_is_refilled_in_full`);
    //  * the heap allocator not reset (`machine::tests::reset_returns_…`);
    //  * the short last page pooled (`release_empties_the_table_…`);
    //  * a memory without a base not getting its image back.
    // `owned` not cleared is the one the flat model cannot see — the table is right,
    // the list is not: `release_empties_the_table_…` and `tests/guest_memory.rs`'s
    // page count do. Registers, flags, input cursor, Heap Guard flag and count left
    // over: `machine::tests::reset_returns_a_used_machine_to_what_new_produces`.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random access sequences, with the machine started over at random points,
        /// agree with the flat model on every backing state — zero-filled, image-loaded,
        /// and over a shared base that must come out untouched — on the default layout
        /// and on the ragged one.
        #[test]
        fn paged_memory_matches_the_flat_model(
            ops in prop::collection::vec((0u8..=RECYCLE, any::<u32>(), any::<u32>(), any::<u32>()), 1..250),
            heap_guard in any::<bool>(),
        ) {
            for image in [
                filled_image(MemoryLayout::default(), 1300, 700),
                filled_image(ragged_layout(), 200, 400),
            ] {
                let blank = filled_image(image.layout, 0, 0);
                run_differential(&blank, Machine::new(&blank, Vec::new(), heap_guard), &ops);
                run_differential(&image, Machine::new(&image, Vec::new(), heap_guard), &ops);
                let loaded = Memory::load(&image);
                let pristine = loaded.read_slice(0, loaded.len()).unwrap();
                let base: Arc<[Word]> = pristine.clone().into();
                let cow = Machine::with_cow(&image, base.clone(), Vec::new(), heap_guard);
                run_differential(&image, cow, &ops);
                prop_assert_eq!(&base[..], &pristine[..]);
            }
        }
    }
}
