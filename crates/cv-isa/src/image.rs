//! The binary image format and the guest address-space layout.

use crate::{Addr, Word};
use serde::{Deserialize, Serialize};

/// The segments of the guest address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Segment {
    /// Executable code loaded from the binary image.
    Code,
    /// Static data loaded from the binary image.
    Data,
    /// The dynamically managed heap.
    Heap,
    /// The call stack (grows towards lower addresses).
    Stack,
    /// Unmapped space between segments.
    Unmapped,
}

/// The address-space layout shared by the runtime, the learning component, and the
/// guest applications.
///
/// A single fixed layout (rather than per-program layouts) mirrors the fixed virtual
/// address space of a Win32 process image and keeps failure locations, invariants, and
/// patches directly comparable across runs and across community members.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoryLayout {
    /// First address of the code segment.
    pub code_base: Addr,
    /// Number of words in the code segment.
    pub code_size: u32,
    /// First address of the static data segment.
    pub data_base: Addr,
    /// Number of words in the data segment.
    pub data_size: u32,
    /// First address of the heap segment.
    pub heap_base: Addr,
    /// Number of words in the heap segment.
    pub heap_size: u32,
    /// Lowest address of the stack segment.
    pub stack_base: Addr,
    /// Number of words in the stack segment. The initial stack pointer is
    /// `stack_base + stack_size` and the stack grows downwards.
    pub stack_size: u32,
}

impl Default for MemoryLayout {
    fn default() -> Self {
        // All segment bases sit above 100,000 so that genuine pointers (code, data,
        // heap, and stack addresses) are classified as pointers by the Daikon heuristic
        // of Section 2.2.4 ("a negative value or a value between 1 and 100,000 is
        // evidence that a variable is not a pointer"), just as on a real Win32 layout.
        MemoryLayout {
            code_base: 0x40000,
            code_size: 0x10000,
            data_base: 0x50000,
            data_size: 0x10000,
            heap_base: 0x60000,
            heap_size: 0x30000,
            stack_base: 0x90000,
            stack_size: 0x10000,
        }
    }
}

impl MemoryLayout {
    /// Total number of addressable words (the end of the stack segment).
    #[inline]
    pub fn total_words(&self) -> usize {
        (self.stack_base + self.stack_size) as usize
    }

    /// The initial stack pointer (one past the highest stack address; the first push
    /// decrements before storing).
    pub fn initial_sp(&self) -> Addr {
        self.stack_base + self.stack_size
    }

    /// One past the last valid code address.
    #[inline]
    pub fn code_end(&self) -> Addr {
        self.code_base + self.code_size
    }

    /// One past the last valid data address.
    #[inline]
    pub fn data_end(&self) -> Addr {
        self.data_base + self.data_size
    }

    /// One past the last valid heap address.
    #[inline]
    pub fn heap_end(&self) -> Addr {
        self.heap_base + self.heap_size
    }

    /// One past the last valid stack address.
    #[inline]
    pub fn stack_end(&self) -> Addr {
        self.stack_base + self.stack_size
    }

    /// Classify an address into a segment.
    #[inline]
    pub fn segment_of(&self, addr: Addr) -> Segment {
        if addr >= self.code_base && addr < self.code_end() {
            Segment::Code
        } else if addr >= self.data_base && addr < self.data_end() {
            Segment::Data
        } else if addr >= self.heap_base && addr < self.heap_end() {
            Segment::Heap
        } else if addr >= self.stack_base && addr < self.stack_end() {
            Segment::Stack
        } else {
            Segment::Unmapped
        }
    }

    /// True if `addr` names a valid (mapped) word.
    #[inline]
    pub fn is_mapped(&self, addr: Addr) -> bool {
        self.segment_of(addr) != Segment::Unmapped
    }

    /// True if `addr` lies within the code segment — the legality test used by the
    /// Memory Firewall for control-flow transfer targets.
    pub fn is_code(&self, addr: Addr) -> bool {
        self.segment_of(addr) == Segment::Code
    }
}

/// A loadable, *stripped* program image: raw code words, raw data words, an entry
/// point — and nothing else. No symbols, no relocation records, no debug information.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BinaryImage {
    /// The address-space layout the image was assembled against.
    pub layout: MemoryLayout,
    /// Encoded instruction words, loaded at `layout.code_base`.
    pub code: Vec<Word>,
    /// Static data words, loaded at `layout.data_base`.
    pub data: Vec<Word>,
    /// The address of the first instruction to execute.
    pub entry: Addr,
}

impl BinaryImage {
    /// The address one past the last code word.
    #[inline]
    pub fn code_end(&self) -> Addr {
        self.layout.code_base + self.code.len() as u32
    }

    /// True if `addr` falls within the loaded code words (not merely the code segment).
    #[inline]
    pub fn contains_code_addr(&self, addr: Addr) -> bool {
        addr >= self.layout.code_base && addr < self.code_end()
    }

    /// Fetch the code word at `addr`, if it is within the loaded image.
    pub fn code_word(&self, addr: Addr) -> Option<Word> {
        if self.contains_code_addr(addr) {
            Some(self.code[(addr - self.layout.code_base) as usize])
        } else {
            None
        }
    }

    /// A rough size measure used by reports: code plus data words.
    pub fn loaded_words(&self) -> usize {
        self.code.len() + self.data.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_layout_is_contiguous_and_ordered() {
        let l = MemoryLayout::default();
        assert!(l.code_base < l.data_base);
        assert!(l.data_base < l.heap_base);
        assert!(l.heap_base < l.stack_base);
        assert_eq!(l.code_end(), l.data_base);
        assert_eq!(l.data_end(), l.heap_base);
        assert_eq!(l.heap_end(), l.stack_base);
        assert_eq!(l.total_words(), l.stack_end() as usize);
    }

    #[test]
    fn segment_classification() {
        let l = MemoryLayout::default();
        assert_eq!(l.segment_of(l.code_base), Segment::Code);
        assert_eq!(l.segment_of(l.data_base), Segment::Data);
        assert_eq!(l.segment_of(l.heap_base), Segment::Heap);
        assert_eq!(l.segment_of(l.stack_base), Segment::Stack);
        assert_eq!(l.segment_of(l.stack_end() - 1), Segment::Stack);
        assert_eq!(l.segment_of(0), Segment::Unmapped);
        assert_eq!(l.segment_of(l.stack_end()), Segment::Unmapped);
    }

    #[test]
    fn is_code_only_accepts_code_segment() {
        let l = MemoryLayout::default();
        assert!(l.is_code(l.code_base + 5));
        assert!(!l.is_code(l.heap_base + 5));
        assert!(!l.is_code(l.stack_base + 5));
    }

    #[test]
    fn initial_sp_is_stack_end() {
        let l = MemoryLayout::default();
        assert_eq!(l.initial_sp(), l.stack_end());
    }

    #[test]
    fn binary_image_code_lookup() {
        let layout = MemoryLayout::default();
        let image = BinaryImage {
            layout,
            code: vec![10, 20, 30],
            data: vec![1, 2],
            entry: layout.code_base,
        };
        assert_eq!(image.code_word(layout.code_base), Some(10));
        assert_eq!(image.code_word(layout.code_base + 2), Some(30));
        assert_eq!(image.code_word(layout.code_base + 3), None);
        assert!(image.contains_code_addr(layout.code_base));
        assert!(!image.contains_code_addr(layout.code_base + 3));
        assert_eq!(image.loaded_words(), 5);
    }
}
