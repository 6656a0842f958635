//! Counted, never timed: what a run on a warm environment asks of the host allocator.
//!
//! An environment keeps its machine from run to run, and a flushed code cache its
//! decoded slots, so a warm page allocates for what it hands its caller and for little
//! else. This binary has its own counting `#[global_allocator]` (per thread, so the
//! tests here do not see each other) and pins those counts: building a page table, page
//! buffers or block vectors per run — each many times the pinned numbers — fails it.

use clearview::apps::{learning_suite, red_team_exploits, Browser};
use clearview::isa::Word;
use clearview::runtime::{
    EnvConfig, ManagedExecutionEnvironment, MonitorConfig, SharedProgram, PAGE_WORDS,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// The system allocator, counting calls and live bytes for the calling thread.
struct Counting;

fn count(allocations: u64, bytes: i64) {
    // A thread that is shutting down has no counters left; it is not one under test.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + allocations));
    let _ = LIVE_BYTES.try_with(|n| n.set(n.get() + bytes));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the contract;
// the counters are thread-local `Cell`s with constant initialisers, so touching them
// neither allocates nor re-enters this allocator. `realloc` and `alloc_zeroed` keep
// their default bodies, which go through `alloc` and `dealloc` here.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(1, layout.size() as i64);
        // SAFETY: the caller's obligations for `alloc` are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, -(layout.size() as i64));
        // SAFETY: `ptr` came from `System.alloc` with this `layout`, as `alloc` above
        // returns nothing else.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocator calls made by `work` on this thread, and the bytes it left allocated.
fn counted<T>(work: impl FnOnce() -> T) -> (u64, i64, T) {
    let (calls, bytes) = (ALLOCATIONS.get(), LIVE_BYTES.get());
    let out = work();
    (ALLOCATIONS.get() - calls, LIVE_BYTES.get() - bytes, out)
}

/// Allocator calls a warm benign learning page may make — and each of them makes
/// exactly these two, for state the run hands over or the guest asked for:
///
/// * `rendered`, the one output vector the caller keeps (no learning page renders more
///   than its first four words of capacity, writes to the debug port, or has a hook
///   observe);
/// * the guest heap's allocation map, a `BTreeMap` that every reset empties: the leaf
///   its first live block goes into.
///
/// The input, the shadow stack, the guest allocator's free list, the page table and the
/// guest's pages are the last run's, reused. Building a machine per run instead asks
/// for the table, the input's copy, the shadow stack and five page buffers on top.
const MAX_ALLOCATIONS_PER_WARM_PAGE: u64 = 2;

/// Calls a flush may add to the page after it, on a classic environment: the nodes of
/// the live-block set as the page's five to sixteen blocks re-enter it — one leaf, or
/// two and the root above them. Decoding the blocks again would ask for a vector each.
const MAX_ALLOCATIONS_PER_FLUSH: u64 = 3;

/// Page buffers a memory may hold on to between runs, as bytes.
const RETAINED_PAGE_BYTES: i64 = (16 * PAGE_WORDS * std::mem::size_of::<Word>()) as i64;

fn environments() -> [(&'static str, ManagedExecutionEnvironment); 2] {
    let image = Browser::build().image;
    let program = SharedProgram::new(image.clone());
    let config = EnvConfig::default();
    [
        ("classic", ManagedExecutionEnvironment::new(image, config)),
        (
            "shared",
            ManagedExecutionEnvironment::with_shared(&program, config),
        ),
    ]
}

#[test]
fn a_warm_page_allocates_for_its_outputs_and_the_guest_heap_only() {
    let pages = learning_suite();
    for (shape, mut env) in environments() {
        // Twice through: the cache is warm and every reused buffer has met its largest.
        for _ in 0..2 {
            for page in &pages {
                assert!(env.run(page).is_completed());
            }
        }
        let warm: Vec<u64> = pages
            .iter()
            .map(|page| {
                let (calls, _, result) = counted(|| env.run(page));
                assert!(result.is_completed());
                assert!(
                    calls <= MAX_ALLOCATIONS_PER_WARM_PAGE,
                    "{shape}: {calls} allocator calls for {page:?}"
                );
                calls
            })
            .collect();
        for (page, warm) in pages.iter().zip(warm) {
            env.flush_cache();
            let (cold, _, result) = counted(|| env.run(page));
            let built = result.stats.blocks_built;
            assert!(shape == "shared" || built >= 5, "{built} blocks rebuilt");
            assert!(
                cold <= warm + MAX_ALLOCATIONS_PER_FLUSH,
                "{shape}: {cold} allocator calls for {built} rebuilt blocks, {warm} warm"
            );
        }
    }
}

#[test]
fn a_run_over_many_pages_leaves_at_most_the_cap_behind() {
    let browser = Browser::build();
    let exploits = red_team_exploits(&browser);
    let grow = exploits
        .iter()
        .find(|e| e.bugzilla == 325403)
        .expect("the buffer-growth exploit");
    let benign = &learning_suite()[0];
    for (shape, mut env) in environments() {
        // Without Heap Guard the page's copy runs on: some 64k words over 128 pages.
        env.set_monitors(MonitorConfig::firewall_and_shadow_stack());
        env.run(benign);
        let (_, retained, _) = counted(|| assert!(env.run(grow.page()).is_completed()));
        // Over what the benign page left: the pool filled up, and a few reused vectors
        // grew (the allocator's free list, the input) — nowhere near one more page.
        let slack = 1024;
        assert!(
            retained <= RETAINED_PAGE_BYTES + slack,
            "{shape}: {retained} bytes kept after the run"
        );
        assert!(retained > 0, "{shape}: the pool did not fill");
    }
}
