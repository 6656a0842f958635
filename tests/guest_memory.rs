//! The paged guest memory on the real guest.
//!
//! Two structural (counted, never timed) guards that a run's set-up is O(pages touched),
//! and the proof that no state leaks from one run into the next. An environment keeps
//! its machine between runs and resets it, so a fresh classic environment per page —
//! the only one whose every run is on a newly built machine — is the oracle, and three
//! long-lived ones must tell its story about every page: a classic one with a warm code
//! cache, a classic one flushed before every page (whose rebuilt blocks must be counted
//! like first builds) and a shared-program one — under full monitoring and under none,
//! the one configuration that executes injected code out of heap pages, and through
//! the orders of events that a pool of reused pages could get wrong. Hook state is
//! state too: the last test is a patch whose auxiliary value must not outlive its run.

use clearview::apps::{evaluation_suite, learning_suite, red_team_exploits, Browser};
use clearview::inference::{Invariant, Variable};
use clearview::isa::{decode_all, Cond, Inst, Operand, Port, ProgramBuilder, Reg};
use clearview::isa::{BinaryImage, Word};
use clearview::patch::{install_hooks, CheckPatch, RepairPatch, RepairStrategy};
use clearview::runtime::{
    EnvConfig, ExecutionStats, Hook, HookAction, HookContext, ManagedExecutionEnvironment, Memory,
    MonitorConfig, ObservationKind, RecordingTracer, RunResult, RunStatus, SharedProgram,
    PAGE_WORDS,
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

/// One thing asked of an environment: the monitors to run under, whether a tracer
/// listens, and the page.
struct Step<'a> {
    monitors: MonitorConfig,
    traced: bool,
    page: &'a [Word],
}

fn take(
    env: &mut ManagedExecutionEnvironment,
    step: &Step<'_>,
) -> (RunResult, Option<RecordingTracer>) {
    env.set_monitors(step.monitors);
    if step.traced {
        let mut tracer = RecordingTracer::new();
        let result = env.run_with_tracer(step.page, &mut tracer);
        (result, Some(tracer))
    } else {
        (env.run(step.page), None)
    }
}

/// A run's statistics without the block counts, which legitimately differ between a
/// warm cache, a cold one and the shared index.
fn without_blocks(stats: ExecutionStats) -> ExecutionStats {
    ExecutionStats {
        blocks_built: 0,
        blocks_ejected: 0,
        ..stats
    }
}

/// The three long-lived environments, and how to prepare the fresh one that is their
/// oracle.
struct Shapes<F> {
    image: BinaryImage,
    install: F,
    warm: ManagedExecutionEnvironment,
    flushed: ManagedExecutionEnvironment,
    shared: ManagedExecutionEnvironment,
}

impl<F: Fn(&mut ManagedExecutionEnvironment)> Shapes<F> {
    /// Every environment, the fresh ones too, goes through `install` before it runs.
    fn new(image: &BinaryImage, install: F) -> Shapes<F> {
        let program = SharedProgram::new(image.clone());
        let config = EnvConfig::default();
        let mut shapes = Shapes {
            image: image.clone(),
            warm: ManagedExecutionEnvironment::new(image.clone(), config),
            flushed: ManagedExecutionEnvironment::new(image.clone(), config),
            shared: ManagedExecutionEnvironment::with_shared(&program, config),
            install,
        };
        for env in [&mut shapes.warm, &mut shapes.flushed, &mut shapes.shared] {
            (shapes.install)(env);
        }
        shapes
    }

    /// Take `step` on a fresh environment and on all three long-lived ones. The flushed one must match the fresh one in everything — every
    /// count, every block the tracer hears of; the other two in everything but blocks.
    fn agree_on(&mut self, step: &Step<'_>) -> RunResult {
        let mut fresh = ManagedExecutionEnvironment::new(self.image.clone(), EnvConfig::default());
        (self.install)(&mut fresh);
        let (want, want_tracer) = take(&mut fresh, step);
        let context = format!("{:?} traced={} {:?}", step.monitors, step.traced, step.page);

        self.flushed.flush_cache();
        let (got, tracer) = take(&mut self.flushed, step);
        assert_eq!(got, want, "flushed: {context}");
        let heard = |t: &Option<RecordingTracer>| {
            t.as_ref()
                .map(|t| (t.events.clone(), t.calls.clone(), t.runs))
        };
        let blocks = |t: &Option<RecordingTracer>| t.as_ref().map(|t| t.blocks.clone());
        assert_eq!(heard(&tracer), heard(&want_tracer), "flushed: {context}");
        assert_eq!(blocks(&tracer), blocks(&want_tracer), "flushed: {context}");

        for (name, env) in [("warm", &mut self.warm), ("shared", &mut self.shared)] {
            let (mut got, tracer) = take(env, step);
            got.stats = without_blocks(got.stats);
            let want = RunResult {
                stats: without_blocks(want.stats),
                ..want.clone()
            };
            assert_eq!(got, want, "{name}: {context}");
            assert_eq!(heard(&tracer), heard(&want_tracer), "{name}: {context}");
        }
        want
    }
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
    for monitors in [MonitorConfig::full(), MonitorConfig::bare()] {
        let mut shapes = Shapes::new(&browser.image, |_| {});
        let (mut detected, mut ran_injected_code) = (0, 0);
        for page in &pages {
            let step = Step {
                monitors,
                traced: false,
                page,
            };
            match shapes.agree_on(&step).status {
                RunStatus::Failure(_) => detected += 1,
                RunStatus::Crash(crash) if !browser.image.contains_code_addr(crash.location) => {
                    ran_injected_code += 1
                }
                _ => {}
            }
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

/// Counts, when the hooked instruction executes, the words of guest memory that are
/// not the loaded image's, and keeps the highest count it has seen.
struct WordsNotPristine {
    pristine: Arc<[Word]>,
    count: Arc<AtomicUsize>,
}

impl Hook for WordsNotPristine {
    fn on_execute(&mut self, ctx: &mut HookContext<'_>) -> HookAction {
        let memory = ctx.machine.memory();
        let words = memory.read_slice(0, memory.len()).unwrap();
        let differing = words.iter().zip(&self.pristine[..]).filter(|(a, b)| a != b);
        self.count.fetch_max(differing.count(), Ordering::Relaxed);
        HookAction::Continue
    }
}

/// The orders of events a pool of reused page buffers could get wrong, each followed by
/// a benign page, with every word of guest memory checked against the loaded image as
/// each run reaches the entry point:
///
/// * the 325403 page surviving without Heap Guard — a copy of some 64k words over 128
///   pages, eight times what the pool retains — and the same page stopped by Heap Guard;
/// * every Red Team exploit ending in a `Failure` (monitored) or a `Crash` (bare) in
///   the middle of the page;
/// * with the Memory Firewall off, injected code executing out of a heap page, and then
///   a page that finds that heap address as the image left it;
/// * Heap Guard flipped on and off between runs of one environment;
/// * a traced run between two plain ones.
#[test]
fn reused_pages_never_show_a_run_what_the_last_one_wrote() {
    let browser = Browser::build();
    let pristine: Arc<[Word]> = SharedProgram::new(browser.image.clone()).pristine().clone();
    let not_pristine = Arc::new(AtomicUsize::new(0));
    let entry = browser.image.entry;
    let install = |env: &mut ManagedExecutionEnvironment| {
        let hook = WordsNotPristine {
            pristine: pristine.clone(),
            count: not_pristine.clone(),
        };
        env.apply_hook(entry, Box::new(hook));
    };
    let mut shapes = Shapes::new(&browser.image, install);

    let exploits = red_team_exploits(&browser);
    let grow = exploits
        .iter()
        .find(|e| e.bugzilla == 325403)
        .expect("the buffer-growth exploit");
    let benign = learning_suite();
    let no_heap_guard = MonitorConfig::firewall_and_shadow_stack();
    let (full, bare) = (MonitorConfig::full(), MonitorConfig::bare());

    let plain = |monitors, page| Step {
        monitors,
        traced: false,
        page,
    };
    let mut script = vec![
        plain(full, &benign[0]),
        plain(no_heap_guard, grow.page()),
        plain(full, &benign[1]),
        plain(full, grow.page()),
        plain(no_heap_guard, &benign[2]),
        plain(full, &benign[2]),
        plain(no_heap_guard, &benign[2]),
    ];
    for (i, exploit) in exploits.iter().enumerate() {
        let page = &benign[i % benign.len()];
        script.push(plain(full, exploit.page()));
        script.push(plain(full, page));
        script.push(plain(bare, exploit.page()));
        script.push(plain(bare, page));
    }
    for page in &benign[..3] {
        let traced = Step {
            traced: true,
            ..plain(full, page)
        };
        script.extend([plain(full, page), traced, plain(full, page)]);
    }

    let (mut survived_big_copy, mut failures, mut crashes, mut ran_injected_code) = (0, 0, 0, 0);
    for step in &script {
        let (monitors, page) = (step.monitors, step.page);
        let result = shapes.agree_on(step);
        assert_eq!(result.stats.hook_invocations, 1, "the entry runs once");
        assert_eq!(
            not_pristine.load(Ordering::Relaxed),
            0,
            "{monitors:?} {page:?}"
        );
        match &result.status {
            RunStatus::Completed if page == grow.page() => survived_big_copy += 1,
            RunStatus::Completed => {}
            RunStatus::Failure(_) => failures += 1,
            RunStatus::Crash(crash) => {
                crashes += 1;
                if !browser.image.contains_code_addr(crash.location) {
                    ran_injected_code += 1;
                }
            }
        }
    }
    assert!(
        survived_big_copy >= 1,
        "325403 without Heap Guard runs to the end"
    );
    assert_eq!(failures, 11, "ten exploits monitored, and 325403 once more");
    assert!(crashes >= 5 && ran_injected_code >= 1);
}

/// A two-variable patch stores its earlier variable for the check *later in the same
/// run* (Section 2.4.2). This guest can reach the check without passing the earlier
/// instruction:
///
/// ```text
///          in ecx ; in edx ; in eax
///          cmp ecx, 0 ; je skip
/// earlier: mov ebx, edx
/// skip:
/// later:   out eax
/// ```
///
/// so after a page that stored 100, a page that jumps around the store and renders 50
/// must find `edx@earlier <= eax@later` as a fresh environment does — satisfied, the
/// earlier value being unavailable — and neither report a violation nor, under the
/// enforcing repair, render the last page's 100 in place of its own 50.
#[test]
fn an_auxiliary_value_never_decides_the_next_page() {
    let mut b = ProgramBuilder::new();
    let main = b.function("main");
    b.input(Reg::Ecx, Port::Input);
    b.input(Reg::Edx, Port::Input);
    b.input(Reg::Eax, Port::Input);
    b.cmp(Reg::Ecx, 0u32);
    let skip = b.new_label("skip");
    b.jcc(Cond::Eq, skip);
    let earlier = b.mov(Reg::Ebx, Reg::Edx);
    b.bind(skip);
    let later = b.output(Reg::Eax, Port::Render);
    b.halt();
    b.set_entry(main);
    let image = b.build().unwrap();

    let invariant = Invariant::LessThan {
        a: Variable::read(earlier, 0, Operand::Reg(Reg::Edx)),
        b: Variable::read(later, 0, Operand::Reg(Reg::Eax)),
    };
    let check = CheckPatch::new(invariant.clone());
    let repair = RepairPatch {
        invariant,
        strategy: RepairStrategy::EnforceLessThan,
    };
    for enforcing in [false, true] {
        let mut shapes = Shapes::new(&image, |env| {
            let hooks = if enforcing {
                repair.build_hooks()
            } else {
                check.build_hooks()
            };
            assert_eq!(install_hooks(env, hooks).len(), 2, "aux store + check");
        });
        let mut load = |page: &[Word]| {
            let result = shapes.agree_on(&Step {
                monitors: MonitorConfig::full(),
                traced: false,
                page,
            });
            assert!(result.is_completed());
            let kinds: Vec<_> = result.observations.iter().map(|o| o.kind).collect();
            (kinds, result.rendered)
        };
        use ObservationKind::{Satisfied, Violated};
        assert_eq!(load(&[1, 100, 200]), (vec![Satisfied], vec![200]));
        assert_eq!(load(&[0, 0, 50]), (vec![Satisfied], vec![50]));
        // Within one run the stored value does decide, so the page above was a test.
        let enforced = if enforcing { 100 } else { 50 };
        assert_eq!(load(&[1, 100, 50]), (vec![Violated], vec![enforced]));
        assert_eq!(load(&[0, 0, 50]), (vec![Satisfied], vec![50]));
    }
}
