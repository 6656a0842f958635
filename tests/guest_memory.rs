//! The paged guest memory on the real guest.
//!
//! Two structural (counted, never timed) guards that a run's set-up is O(pages touched),
//! and the proof that no state leaks from one run into the next: one long-lived classic
//! environment, a fresh classic environment per page, and a shared-program environment
//! must tell the same story about every page — under full monitoring and under none,
//! the one configuration that executes injected code out of heap pages.

use clearview::apps::{evaluation_suite, learning_suite, red_team_exploits, Browser};
use clearview::isa::{decode_all, Inst};
use clearview::runtime::{
    EnvConfig, Hook, HookAction, HookContext, ManagedExecutionEnvironment, Memory, MonitorConfig,
    RunResult, RunStatus, SharedProgram, PAGE_WORDS,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Loading the browser materialises exactly the pages its code and data occupy: both
/// start on a page boundary and the layout is a whole number of pages.
#[test]
fn loading_the_browser_owns_only_its_code_and_data_pages() {
    let image = Browser::build().image;
    assert_eq!(image.layout.code_base as usize % PAGE_WORDS, 0);
    assert_eq!(image.layout.data_base as usize % PAGE_WORDS, 0);
    assert_eq!(image.layout.total_words() % PAGE_WORDS, 0);
    let pages = image.code.len().div_ceil(PAGE_WORDS) + image.data.len().div_ceil(PAGE_WORDS);
    assert_eq!(Memory::load(&image).owned_words(), pages * PAGE_WORDS);
    assert!(pages <= 4, "the browser image grew to {pages} pages");
}

/// Pages a machine may own when a benign learning page halts. Every one of them ends
/// owning five — the image's three, the top of the stack, the start of the heap — so
/// this leaves one spare. The address space has 1,280.
const MAX_PAGES_OWNED_AT_HALT: usize = 6;

/// Records the words the machine owns each time the hooked instruction executes.
struct OwnedWords(Arc<AtomicUsize>);

impl Hook for OwnedWords {
    fn on_execute(&mut self, ctx: &mut HookContext<'_>) -> HookAction {
        self.0
            .store(ctx.machine.memory().owned_words(), Ordering::Relaxed);
        HookAction::Continue
    }
}

#[test]
fn a_benign_page_leaves_the_machine_owning_a_handful_of_pages() {
    let image = Browser::build().image;
    let owned = Arc::new(AtomicUsize::new(0));
    let mut env = ManagedExecutionEnvironment::new(image.clone(), EnvConfig::default());
    // `halt` writes nothing, so what the machine owns before it is what the run owned.
    for iwa in decode_all(&image.code, image.layout.code_base).unwrap() {
        if iwa.inst == Inst::Halt {
            env.apply_hook(iwa.addr, Box::new(OwnedWords(owned.clone())));
        }
    }
    let image_words = Memory::load(&image).owned_words();
    for page in learning_suite() {
        owned.store(0, Ordering::Relaxed);
        assert!(env.run(&page).is_completed());
        let words = owned.load(Ordering::Relaxed);
        assert!(words > image_words, "the run wrote at least its stack");
        assert!(
            words <= MAX_PAGES_OWNED_AT_HALT * PAGE_WORDS,
            "page {page:?} left {} pages owned",
            words / PAGE_WORDS
        );
    }
}

/// What a run is compared on (block counts legitimately differ between a warm cache,
/// a cold one and the shared index).
fn story(r: RunResult) -> impl PartialEq + std::fmt::Debug {
    (
        r.status,
        r.rendered,
        r.debug,
        r.observations,
        r.stats.instructions,
    )
}

#[test]
fn no_state_leaks_between_runs_on_any_environment_shape() {
    let browser = Browser::build();
    let mut pages = evaluation_suite();
    let exploits = red_team_exploits(&browser);
    assert_eq!(exploits.len(), 10);
    // Interleave the attacks with the benign pages, so every attack's wreckage — heap
    // sprays, smashed stacks, injected code — is followed by pages that would show it.
    for (i, exploit) in exploits.iter().enumerate() {
        pages.insert(i * 5, exploit.page().to_vec());
    }
    let program = SharedProgram::new(browser.image.clone());
    for monitors in [MonitorConfig::full(), MonitorConfig::bare()] {
        let config = EnvConfig::with_monitors(monitors);
        let mut long_lived = ManagedExecutionEnvironment::new(browser.image.clone(), config);
        let mut shared = ManagedExecutionEnvironment::with_shared(&program, config);
        let (mut detected, mut ran_injected_code) = (0, 0);
        for page in &pages {
            let fresh = ManagedExecutionEnvironment::new(browser.image.clone(), config).run(page);
            match &fresh.status {
                RunStatus::Failure(_) => detected += 1,
                RunStatus::Crash(crash) if !browser.image.contains_code_addr(crash.location) => {
                    ran_injected_code += 1
                }
                _ => {}
            }
            let fresh = story(fresh);
            assert_eq!(story(long_lived.run(page)), fresh, "{monitors:?} {page:?}");
            assert_eq!(story(shared.run(page)), fresh, "{monitors:?} {page:?}");
        }
        // Monitored, every attack is caught before it lands; bare, none is, and some get
        // as far as fetching instructions out of the heap.
        if monitors == MonitorConfig::full() {
            assert_eq!((detected, ran_injected_code), (10, 0));
        } else {
            assert!(detected == 0 && ran_injected_code > 0);
        }
    }
}
