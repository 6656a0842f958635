//! The guest heap allocator and the canary scheme used by Heap Guard.
//!
//! The real ClearView deployment wraps the application allocator so that Heap Guard can
//! place canary values at the boundaries of allocated memory blocks and consult an
//! allocation map when a write touches a canary (Section 2.3). This module is that
//! allocator: `alloc` reserves `size` user words bracketed by one canary word on each
//! side, `free` returns the block to a free list *without clearing its contents* —
//! which is precisely the behaviour the memory-management exploits (Bugzilla 269095,
//! 312278, 320182) depend on: freed memory can be re-allocated for a different object
//! while stale pointers to it survive.

use crate::error::CrashKind;
use crate::memory::Memory;
use cv_isa::{Addr, MemoryLayout, Word};
use std::collections::BTreeMap;

/// The canary word written immediately before and after every allocation.
pub const CANARY: Word = 0xDEAD_C0DE;

/// A live allocation: `size` user words starting at the key address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Allocation {
    /// First user word.
    pub user_start: Addr,
    /// User size in words (excludes canaries).
    pub size: u32,
}

/// A free region available for reuse, in *total* words (canaries included).
#[derive(Debug, Clone, Copy)]
struct FreeBlock {
    start: Addr,
    total: u32,
}

/// The guest heap allocator.
#[derive(Debug, Clone)]
pub struct HeapAllocator {
    layout: MemoryLayout,
    /// Next never-used address (bump frontier).
    frontier: Addr,
    /// Live allocations keyed by user start address.
    live: BTreeMap<Addr, Allocation>,
    /// Recently freed blocks, most recent last (searched from the back so that a
    /// free-then-alloc of the same size deterministically reuses the same address —
    /// the allocator behaviour the use-after-free exploits rely on).
    free_list: Vec<FreeBlock>,
    /// Statistics: total allocations performed.
    pub alloc_count: u64,
    /// Statistics: total frees performed.
    pub free_count: u64,
}

impl HeapAllocator {
    /// Create an allocator for the heap segment of `layout`.
    pub fn new(layout: MemoryLayout) -> HeapAllocator {
        HeapAllocator {
            layout,
            frontier: layout.heap_base,
            live: BTreeMap::new(),
            free_list: Vec::new(),
            alloc_count: 0,
            free_count: 0,
        }
    }

    /// Forget every allocation: back to what [`HeapAllocator::new`] produced, keeping the
    /// free list's capacity.
    pub(crate) fn reset(&mut self) {
        self.frontier = self.layout.heap_base;
        self.live.clear();
        self.free_list.clear();
        self.alloc_count = 0;
        self.free_count = 0;
    }

    /// Allocate `size` user words; returns the address of the first user word.
    ///
    /// A `size` of zero is rounded up to one word (as most `malloc` implementations
    /// return a unique non-null pointer for zero-byte requests).
    pub fn alloc(&mut self, mem: &mut Memory, size: u32) -> Result<Addr, CrashKind> {
        let size = size.max(1);
        let total = size + 2;
        let start = self.find_region(total)?;
        let user_start = start + 1;
        mem.write_raw(start, CANARY);
        mem.write_raw(start + 1 + size, CANARY);
        self.live
            .insert(user_start, Allocation { user_start, size });
        self.alloc_count += 1;
        Ok(user_start)
    }

    fn find_region(&mut self, total: u32) -> Result<Addr, CrashKind> {
        // Prefer the most recently freed block of the exact total size.
        if let Some(pos) = self.free_list.iter().rposition(|b| b.total == total) {
            let block = self.free_list.remove(pos);
            return Ok(block.start);
        }
        // Otherwise first fit (from the back, most recently freed first) with a split.
        if let Some(pos) = self.free_list.iter().rposition(|b| b.total > total) {
            let block = self.free_list[pos];
            let remaining = block.total - total;
            if remaining >= 3 {
                self.free_list[pos] = FreeBlock {
                    start: block.start + total,
                    total: remaining,
                };
            } else {
                self.free_list.remove(pos);
            }
            return Ok(block.start);
        }
        // Fall back to the bump frontier.
        let start = self.frontier;
        let end = start.checked_add(total).ok_or(CrashKind::OutOfMemory)?;
        if end > self.layout.heap_end() {
            return Err(CrashKind::OutOfMemory);
        }
        self.frontier = end;
        Ok(start)
    }

    /// Free the allocation whose user area starts at `user_start`.
    ///
    /// The block contents (and its canaries) are left in place; only the allocation map
    /// and free list change. Freeing an address that is not a live allocation crashes
    /// the guest with [`CrashKind::InvalidFree`].
    pub fn free(&mut self, user_start: Addr) -> Result<(), CrashKind> {
        match self.live.remove(&user_start) {
            Some(a) => {
                self.free_list.push(FreeBlock {
                    start: a.user_start - 1,
                    total: a.size + 2,
                });
                self.free_count += 1;
                Ok(())
            }
            None => Err(CrashKind::InvalidFree { addr: user_start }),
        }
    }

    /// True if `addr` falls within the *user area* of some live allocation.
    pub fn is_within_live_allocation(&self, addr: Addr) -> bool {
        // The candidate allocation is the one with the greatest user_start <= addr.
        self.live
            .range(..=addr)
            .next_back()
            .map(|(_, a)| addr < a.user_start + a.size)
            .unwrap_or(false)
    }

    /// The live allocation containing `addr`, if any.
    pub fn allocation_containing(&self, addr: Addr) -> Option<Allocation> {
        self.live
            .range(..=addr)
            .next_back()
            .map(|(_, a)| *a)
            .filter(|a| addr < a.user_start + a.size)
    }

    /// Number of live allocations.
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// Iterate over live allocations (diagnostics).
    pub fn live_allocations(&self) -> impl Iterator<Item = Allocation> + '_ {
        self.live.values().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Memory, HeapAllocator) {
        let layout = MemoryLayout::default();
        (Memory::new(layout), HeapAllocator::new(layout))
    }

    #[test]
    fn alloc_places_canaries_around_user_area() {
        let (mut mem, mut heap) = setup();
        let p = heap.alloc(&mut mem, 4).unwrap();
        assert_eq!(mem.read_raw(p - 1), CANARY);
        assert_eq!(mem.read_raw(p + 4), CANARY);
        assert!(heap.is_within_live_allocation(p));
        assert!(heap.is_within_live_allocation(p + 3));
        assert!(!heap.is_within_live_allocation(p + 4));
        assert!(!heap.is_within_live_allocation(p - 1));
    }

    #[test]
    fn free_then_alloc_same_size_reuses_address() {
        let (mut mem, mut heap) = setup();
        let a = heap.alloc(&mut mem, 8).unwrap();
        let _b = heap.alloc(&mut mem, 8).unwrap();
        heap.free(a).unwrap();
        let c = heap.alloc(&mut mem, 8).unwrap();
        assert_eq!(
            a, c,
            "freed block of the same size is reused (use-after-free substrate)"
        );
    }

    #[test]
    fn freed_contents_are_not_cleared() {
        let (mut mem, mut heap) = setup();
        let a = heap.alloc(&mut mem, 2).unwrap();
        mem.write_raw(a, 0x41414141);
        heap.free(a).unwrap();
        assert_eq!(mem.read_raw(a), 0x41414141);
        let b = heap.alloc(&mut mem, 2).unwrap();
        assert_eq!(b, a);
        assert_eq!(
            mem.read_raw(b),
            0x41414141,
            "recycled memory is not reinitialized"
        );
    }

    #[test]
    fn invalid_free_is_a_crash() {
        let (_mem, mut heap) = setup();
        assert!(matches!(
            heap.free(0x12345),
            Err(CrashKind::InvalidFree { .. })
        ));
    }

    #[test]
    fn double_free_is_a_crash() {
        let (mut mem, mut heap) = setup();
        let a = heap.alloc(&mut mem, 1).unwrap();
        heap.free(a).unwrap();
        assert!(heap.free(a).is_err());
    }

    #[test]
    fn exhaustion_reports_out_of_memory() {
        let (mut mem, mut heap) = setup();
        let layout = MemoryLayout::default();
        let res = heap.alloc(&mut mem, layout.heap_size + 10);
        assert!(matches!(res, Err(CrashKind::OutOfMemory)));
    }

    #[test]
    fn zero_sized_allocations_get_distinct_addresses() {
        let (mut mem, mut heap) = setup();
        let a = heap.alloc(&mut mem, 0).unwrap();
        let b = heap.alloc(&mut mem, 0).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn split_of_larger_free_block() {
        let (mut mem, mut heap) = setup();
        let a = heap.alloc(&mut mem, 20).unwrap();
        heap.free(a).unwrap();
        // Smaller allocation carves the old block.
        let b = heap.alloc(&mut mem, 4).unwrap();
        assert_eq!(b, a, "reuses the start of the freed region");
        // And another small allocation still fits in the remainder without advancing
        // past the original frontier region.
        let c = heap.alloc(&mut mem, 4).unwrap();
        assert!(c > b);
    }

    /// After a reset the allocator places, reuses and counts exactly as a new one does.
    #[test]
    fn reset_forgets_every_allocation_and_free_block() {
        let (mut mem, mut heap) = setup();
        let a = heap.alloc(&mut mem, 8).unwrap();
        heap.alloc(&mut mem, 3).unwrap();
        heap.free(a).unwrap();
        heap.reset();
        assert_eq!(
            (heap.live_count(), heap.alloc_count, heap.free_count),
            (0, 0, 0)
        );
        assert!(heap.free(a).is_err(), "nothing is live");
        let (_, mut fresh) = setup();
        for size in [3, 8, 1] {
            assert_eq!(heap.alloc(&mut mem, size), fresh.alloc(&mut mem, size));
        }
    }

    #[test]
    fn allocation_containing_reports_bounds() {
        let (mut mem, mut heap) = setup();
        let a = heap.alloc(&mut mem, 5).unwrap();
        let rec = heap.allocation_containing(a + 4).unwrap();
        assert_eq!(rec.user_start, a);
        assert_eq!(rec.size, 5);
        assert!(heap.allocation_containing(a + 5).is_none());
    }
}
