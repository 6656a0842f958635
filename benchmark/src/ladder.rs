//! The per-layer ladder. Every rung is measured from here by timing calls into a
//! crate's public functions on the traced workload's own inputs (auto-calibrated
//! iteration counts, at least `RUNG_BUDGET` per rung), or read from public
//! counters (`ExecutionStats`, `FleetMetrics`, `SyncOutcome`). Nothing inside a
//! crate is instrumented. The closing check multiplies rung times by the call
//! counts of a traced operation and compares the sum with the operation's
//! measured time; what is left over is reported as `trace.unattributed_share`.

use crate::common::{
    benign_page, choose_attackers, fleet_clearview_config, fleet_config, immunise,
    long_lived_targets, rejoin_all, Target, WAVE_KILLS,
};
use crate::guest::{HeavyGuest, TIMED_ITERATIONS};
use crate::harness::Region;
use crate::metrics::{MetricValue, PER_LAYER};
use crate::rng::Rng;
use crate::spans::Recorder;
use crate::workloads::fleet_churn::LEARN_PAGES_PER_WAVE;
use crate::workloads::host_browse::{attack_until_survived, MAX_PRESENTATIONS};
use cv_apps::Browser;
use cv_core::{
    candidate_invariants, checks_for, generate_repairs, learn_model, ClearViewConfig, DigestStatus,
    FailureResponder, ManagerTree, PatchPlan, ProtectedApplication, RunDigest,
};
use cv_fleet::{
    Envelope, EnvelopePayload, Fleet, FleetMetrics, InProcessTransport, MembershipOp, Presentation,
    ShardedInvariantStore, Transport, COORDINATOR,
};
use cv_inference::{Invariant, LearnedModel, LearningFrontend};
use cv_isa::{decode_all, Addr, BinaryImage, Word};
use cv_patch::{install_hooks, uninstall, RepairPatch};
use cv_runtime::{
    CodeCache, EnvConfig, ExecEvent, ExecutionStats, Machine, ManagedExecutionEnvironment,
    MonitorConfig, SharedProgram, Tracer,
};
use cv_store::{DeltaSnapshot, Snapshot};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Timed work per rung.
const RUNG_BUDGET: Duration = Duration::from_millis(100);
/// Timed work per rung under `--smoke`.
const SMOKE_BUDGET: Duration = Duration::from_millis(1);

/// Members of the fleet the fleet and store rungs run on when the traced
/// workload is a host workload and has no fleet of its own.
pub const AUX_FLEET_NODES: usize = 1024;

/// What the rungs are calibrated on: the traced workload's own inputs.
pub struct Inputs {
    /// The image the host rungs run: the browser, or the heavy guest.
    pub image: BinaryImage,
    /// A sample of the workload's benign pages for that image.
    pub pages: Vec<Vec<Word>>,
    /// The suite the workload's model is learned from.
    pub learn_pages: Vec<Vec<Word>>,
    /// The exploit pages the workload's campaigns present.
    pub exploits: Vec<Vec<Word>>,
    pub config: ClearViewConfig,
    /// Repairs installed on the workload's application while it is timed.
    pub repairs: Vec<RepairPatch>,
    /// Members of the fleet the fleet rungs run on.
    pub fleet_nodes: usize,
    /// Presentations per epoch of the workload's own epochs.
    pub epoch_presentations: usize,
    /// The live fleet learns a few fresh pages per operation (`fleet_churn`);
    /// elsewhere learning happens once, on a fresh fleet, from `learn_pages`.
    pub learns_increments: bool,
}

impl Inputs {
    /// Inputs of a host workload: fleet rungs run on an auxiliary fleet.
    pub fn for_host(
        image: BinaryImage,
        pages: Vec<Vec<Word>>,
        learn_pages: Vec<Vec<Word>>,
        exploits: Vec<Vec<Word>>,
        config: ClearViewConfig,
        repairs: Vec<RepairPatch>,
    ) -> Inputs {
        Inputs {
            image,
            pages,
            learn_pages,
            exploits,
            config,
            repairs,
            fleet_nodes: AUX_FLEET_NODES,
            epoch_presentations: AUX_FLEET_NODES,
            learns_increments: false,
        }
    }

    /// Inputs of a fleet workload: host rungs run on the browser image.
    pub fn for_fleet(
        browser: &Browser,
        pages: Vec<Vec<Word>>,
        learn_pages: Vec<Vec<Word>>,
        target: &Target,
        nodes: usize,
        epoch_presentations: usize,
        learns_increments: bool,
    ) -> Inputs {
        Inputs {
            image: browser.image.clone(),
            pages,
            learn_pages,
            exploits: vec![target.page.clone()],
            config: fleet_clearview_config(),
            repairs: Vec::new(),
            fleet_nodes: nodes,
            epoch_presentations,
            learns_increments,
        }
    }
}

/// Mean seconds per call of `f`: one warm call, then batches that grow until
/// one batch fills `budget`.
fn per_call(budget: Duration, mut f: impl FnMut()) -> f64 {
    f();
    let mut n = 1u64;
    loop {
        let t = Instant::now();
        for _ in 0..n {
            f();
        }
        let d = t.elapsed();
        if d >= budget {
            return d.as_secs_f64() / n as f64;
        }
        let scale = budget.as_secs_f64() / d.as_secs_f64().max(1e-9);
        n = ((n as f64 * scale * 1.2).ceil() as u64).clamp(n + 1, n * 64);
    }
}

/// Mean seconds per call of the part of `f` it times itself (its return
/// value), for rungs whose every call needs untimed preparation. Calls until
/// the timed parts fill `budget`.
fn per_timed_call(budget: Duration, mut f: impl FnMut() -> Duration) -> f64 {
    f();
    let (mut total, mut n) = (Duration::ZERO, 0u32);
    while total < budget {
        total += f();
        n += 1;
    }
    total.as_secs_f64() / f64::from(n)
}

/// Items a variant runs back to back before the next variant takes its turn.
const INTERLEAVE_CHUNK: usize = 16;

/// Mean seconds per item of each of `N` variants of one measurement over
/// `items`, taken round-robin in short chunks (16 items on variant 0, the same
/// 16 on variant 1, …, then the next 16) so every variant sees the same machine
/// conditions: this box drifts by tens of percent over seconds, and differences
/// between variants measured whole passes apart are mostly that drift. Not item
/// by item: each variant's working set (a 2.6 MB guest address space, a code
/// cache) would then be evicted between its turns, which no workload does.
/// `budget` is per variant.
fn interleaved<const N: usize, T>(
    budget: Duration,
    items: &[T],
    mut f: impl FnMut(usize, &T),
) -> [f64; N] {
    for item in items {
        (0..N).for_each(|variant| f(variant, item));
    }
    let mut total = [Duration::ZERO; N];
    let mut passes = 0u32;
    while total.iter().sum::<Duration>() < budget * N as u32 {
        for chunk in items.chunks(INTERLEAVE_CHUNK) {
            for (variant, spent) in total.iter_mut().enumerate() {
                // The chunk's first item re-warms the variant's working set.
                f(variant, &chunk[0]);
                let t = Instant::now();
                for item in chunk {
                    f(variant, item);
                }
                *spent += t.elapsed();
            }
        }
        passes += 1;
    }
    total.map(|d| d.as_secs_f64() / f64::from(passes) / items.len() as f64)
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

/// One tracer callback, in delivery order (procedure discovery is
/// order-sensitive, so a replay must interleave them as the run did).
enum Step {
    Block(Addr),
    Call(Addr, Addr),
    Event(ExecEvent),
}

#[derive(Default)]
struct CaptureTracer(Vec<Step>);

impl Tracer for CaptureTracer {
    fn on_block_first_execution(&mut self, block_start: Addr) {
        self.0.push(Step::Block(block_start));
    }
    fn on_inst(&mut self, event: &ExecEvent) {
        self.0.push(Step::Event(event.clone()));
    }
    fn on_call(&mut self, call_site: Addr, target: Addr) {
        self.0.push(Step::Call(call_site, target));
    }
}

fn replay(frontend: &mut LearningFrontend, runs: &[Vec<Step>]) {
    for steps in runs {
        for step in steps {
            match step {
                Step::Block(a) => frontend.on_block_first_execution(*a),
                Step::Call(site, target) => frontend.on_call(*site, *target),
                Step::Event(e) => frontend.on_inst(e),
            }
        }
        frontend.on_run_end();
        frontend.commit_run();
    }
}

fn env_with(image: &BinaryImage, monitors: MonitorConfig) -> ManagedExecutionEnvironment {
    ManagedExecutionEnvironment::new(image.clone(), EnvConfig::with_monitors(monitors))
}

/// The summed statistics of one pass over `pages` on `env`.
fn pass_stats(
    env: &mut ManagedExecutionEnvironment,
    pages: &[Vec<Word>],
    cold: bool,
) -> ExecutionStats {
    let mut stats = ExecutionStats::default();
    for page in pages {
        if cold {
            env.flush_cache();
        }
        stats.merge(&env.run(page).stats);
    }
    stats
}

/// A campaign on a fresh application: presentations until the exploit is
/// survived, and the time those presentations took.
fn campaign(
    image: &BinaryImage,
    model: &LearnedModel,
    config: ClearViewConfig,
    exploit: &[Word],
) -> (ProtectedApplication, u32, Duration) {
    let mut app = ProtectedApplication::new(image.clone(), model.clone(), config);
    let t = Instant::now();
    let k = attack_until_survived(&mut app, exploit).unwrap_or(MAX_PRESENTATIONS);
    (app, k, t.elapsed())
}

struct Rungs {
    budget: Duration,
    values: BTreeMap<&'static str, f64>,
}

impl Rungs {
    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "undeclared {name}"
        );
        self.values
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// `floor.*`: the denominators every ratio is stated against.
    fn floor(&mut self, snapshot_bytes: usize) {
        let guest = HeavyGuest::build();
        let page = guest.benign_page(TIMED_ITERATIONS, &mut Rng::new(1));
        let program = SharedProgram::new(guest.image.clone());
        let bare = EnvConfig::with_monitors(MonitorConfig::bare());
        let mut env = ManagedExecutionEnvironment::with_shared(&program, bare);
        let insts = env.run(&page).stats.instructions as f64;
        let run = per_call(self.budget, || {
            black_box(env.run(&page));
        });
        let cow = per_call(self.budget, || {
            black_box(Machine::with_cow(
                &guest.image,
                program.pristine().clone(),
                page.clone(),
                false,
            ));
        });
        self.set(
            "floor.interp_ns_per_inst",
            (run - cow).max(0.0) * 1e9 / insts,
        );

        let src = vec![0xA5u8; snapshot_bytes.max(1)];
        let mut dst = vec![0u8; src.len()];
        let copy = per_call(self.budget, || {
            dst.copy_from_slice(black_box(&src));
            black_box(&mut dst);
        });
        self.set("floor.memcpy_mb_s", src.len() as f64 / copy / 1e6);
    }

    /// `isa.*` and `runtime.*` on the workload's image and pages.
    fn isa_and_runtime(&mut self, inputs: &Inputs) {
        let image = &inputs.image;
        let pages = &inputs.pages;
        let insts = decode_all(&image.code, image.layout.code_base).expect("image decodes");
        let decode = per_call(self.budget, || {
            black_box(decode_all(black_box(&image.code), image.layout.code_base).ok());
        });
        self.set("isa.decode_ns_per_inst", decode * 1e9 / insts.len() as f64);

        // Block starts: the entry and every fall-through or target after a block end.
        let mut starts = vec![image.entry];
        starts.extend(
            insts
                .iter()
                .filter(|i| i.inst.ends_basic_block())
                .map(|i| i.next_addr())
                .filter(|a| image.contains_code_addr(*a)),
        );
        let build = per_call(self.budget, || {
            for &addr in &starts {
                black_box(CodeCache::build_block(image, addr).ok());
            }
        });
        self.set("isa.block_build_us", build * 1e6 / starts.len() as f64);

        // Table 2's rows in real wall-clock (warm cache, no patches), the
        // shared/CoW path, the traced path and the two machine constructors —
        // round-robin page by page, so all nine see the same machine conditions
        // and `run − machine` is a difference of neighbours.
        const ROWS: [&str; 9] = [
            "runtime.run_bare_us",
            "runtime.run_mf_us",
            "runtime.run_mf_ss_us",
            "runtime.run_mf_hg_us",
            "runtime.run_full_us",
            "runtime.shared_run_full_us",
            "runtime.traced_run_us",
            "runtime.machine_new_us",
            "runtime.machine_cow_us",
        ];
        let program = SharedProgram::new(image.clone());
        let mut envs = [
            env_with(image, MonitorConfig::bare()),
            env_with(image, MonitorConfig::memory_firewall_only()),
            env_with(image, MonitorConfig::firewall_and_shadow_stack()),
            env_with(image, MonitorConfig::firewall_and_heap_guard()),
            env_with(image, MonitorConfig::full()),
            ManagedExecutionEnvironment::with_shared(&program, EnvConfig::default()),
            env_with(image, MonitorConfig::full()),
        ];
        let mut frontend = LearningFrontend::new(image.clone());
        let per_page: [f64; 9] = interleaved(self.budget, pages, |row, page| match row {
            6 => {
                black_box(envs[row].run_with_tracer(page, &mut frontend));
                frontend.discard_run();
            }
            7 => {
                black_box(Machine::new(image, page.clone(), true));
            }
            8 => {
                let pristine = program.pristine().clone();
                black_box(Machine::with_cow(image, pristine, page.clone(), true));
            }
            _ => {
                black_box(envs[row].run(page));
            }
        });
        for (name, seconds) in ROWS.iter().zip(per_page) {
            self.set(name, seconds * 1e6);
        }
        let (bare, full) = (
            self.get("runtime.run_bare_us"),
            self.get("runtime.run_full_us"),
        );
        self.set("runtime.monitor_overhead_pct", (full - bare) / bare * 100.0);

        // Counts per page, under full monitors and the workload's own repairs,
        // from a cold cache as `present` runs them.
        let mut env = env_with(image, MonitorConfig::full());
        for repair in &inputs.repairs {
            install_hooks(&mut env, repair.build_hooks());
        }
        let stats = pass_stats(&mut env, pages, true);
        let n = pages.len() as f64;
        self.set("runtime.insts_per_page", stats.instructions as f64 / n);
        self.set(
            "runtime.firewall_checks_per_page",
            stats.firewall_checks as f64 / n,
        );
        self.set(
            "runtime.heap_guard_checks_per_page",
            stats.heap_guard_checks as f64 / n,
        );
        self.set(
            "runtime.shadow_stack_ops_per_page",
            stats.shadow_stack_ops as f64 / n,
        );
        self.set(
            "runtime.hook_invocations_per_page",
            stats.hook_invocations as f64 / n,
        );
        self.set("isa.blocks_built_per_op", stats.blocks_built as f64 / n);
        self.set(
            "runtime.interp_ns_per_inst",
            (full - self.get("runtime.machine_new_us")) * 1e3 / self.get("runtime.insts_per_page"),
        );
    }

    /// `inference.*`: learning on the workload's suite.
    fn inference(&mut self, inputs: &Inputs) -> LearnedModel {
        let image = &inputs.image;
        let suite = &inputs.learn_pages;
        let full = MonitorConfig::full();
        let (model, stats) = learn_model(image, suite, full);
        let learn = per_call(self.budget, || {
            black_box(learn_model(image, suite, full));
        });
        self.set("inference.learn_model_ms", learn * 1e3);
        self.set(
            "inference.trace_events_per_page",
            stats.trace_events as f64 / suite.len() as f64,
        );
        self.set("inference.invariants", model.invariants.len() as f64);

        // Capture the tracer stream once, replay it into fresh front ends.
        let mut env = env_with(image, full);
        let runs: Vec<Vec<Step>> = suite
            .iter()
            .map(|page| {
                let mut tracer = CaptureTracer::default();
                env.run_with_tracer(page, &mut tracer);
                tracer.0
            })
            .collect();
        let events: usize = runs
            .iter()
            .flatten()
            .filter(|s| matches!(s, Step::Event(_)))
            .count();
        let feed = per_timed_call(self.budget, || {
            let mut frontend = LearningFrontend::new(image.clone());
            timed(|| replay(&mut frontend, &runs)).1
        });
        self.set("inference.events_per_s", events as f64 / feed);
        let mut frontend = LearningFrontend::new(image.clone());
        replay(&mut frontend, &runs);
        let infer = per_call(self.budget, || {
            black_box(frontend.infer());
        });
        self.set("inference.infer_us", infer * 1e6);

        // Eight member uploads merged into the sharded community store.
        let uploads = vec![model.invariants.clone(); 8];
        let merge = per_timed_call(self.budget, || {
            let mut store = ShardedInvariantStore::new(8);
            timed(|| store.merge_uploads(&uploads)).1
        });
        self.set("inference.merge_us", merge * 1e6 / uploads.len() as f64);
        model
    }

    /// `patch.*` and the single-host `core.*` rungs.
    fn patch_and_core(&mut self, inputs: &Inputs, model: &LearnedModel) {
        let image = &inputs.image;
        let pages = &inputs.pages;
        let full = MonitorConfig::full();

        // Check patches for every enforceable learned invariant: installed,
        // executed by the workload's pages, removed.
        let invariants: Vec<Invariant> = model
            .invariants
            .iter()
            .filter(|i| !matches!(i, Invariant::StackPointerOffset { .. }))
            .cloned()
            .collect();
        let checks = checks_for(&invariants);
        let mut env = env_with(image, full);
        let mut handles = Vec::new();
        let install = per_timed_call(self.budget, || {
            for handle in handles.drain(..) {
                let _ = uninstall(&mut env, &handle);
            }
            let t = Instant::now();
            for check in &checks {
                handles.push(install_hooks(&mut env, check.build_hooks()));
            }
            t.elapsed()
        });
        self.set("patch.install_us", install * 1e6 / checks.len() as f64);
        let check_invocations = pass_stats(&mut env, pages, false).hook_invocations;
        let mut plain = env_with(image, full);
        let [with_checks, without]: [f64; 2] = interleaved(self.budget, pages, |variant, page| {
            let env = if variant == 0 { &mut env } else { &mut plain };
            black_box(env.run(page));
        });
        self.set(
            "patch.check_hook_ns",
            (with_checks - without) * 1e9 * pages.len() as f64
                / (check_invocations as f64).max(1.0),
        );
        let remove = per_timed_call(self.budget, || {
            if handles.is_empty() {
                for check in &checks {
                    handles.push(install_hooks(&mut env, check.build_hooks()));
                }
            }
            let t = Instant::now();
            for handle in handles.drain(..) {
                let _ = uninstall(&mut env, &handle);
            }
            t.elapsed()
        });
        self.set("patch.uninstall_us", remove * 1e6 / checks.len() as f64);

        // Blocks a campaign's check installs eject from a warm cache.
        let mut cache = CodeCache::new();
        let code = decode_all(&image.code, image.layout.code_base).expect("image decodes");
        for inst in &code {
            let _ = cache.fetch(image, inst.addr);
        }

        // Campaigns over the workload's exploits.
        let mut presentations = 0u32;
        let mut check_count = 0usize;
        let mut ejected = 0usize;
        let mut apps = Vec::new();
        for exploit in &inputs.exploits {
            let (app, k, _) = campaign(image, model, inputs.config, exploit);
            presentations += k;
            for timeline in app.timelines() {
                check_count += timeline.check_counts.total() as usize;
            }
            apps.push(app);
        }
        let campaigns = inputs.exploits.len() as f64;
        let attack_present = per_timed_call(self.budget, || {
            let mut total = Duration::ZERO;
            for exploit in &inputs.exploits {
                total += campaign(image, model, inputs.config, exploit).2;
            }
            total
        });
        self.set(
            "core.attack_present_us",
            attack_present * 1e6 / f64::from(presentations),
        );
        self.set(
            "core.presentations_per_campaign",
            f64::from(presentations) / campaigns,
        );
        self.set("patch.checks_per_campaign", check_count as f64 / campaigns);

        let app_new = per_call(self.budget, || {
            black_box(ProtectedApplication::new(
                image.clone(),
                model.clone(),
                inputs.config,
            ));
        });
        self.set("core.app_new_us", app_new * 1e6);

        // The repairs the timed application carries (or, where the workload's
        // application is fresh each op, the first campaign's).
        let repairs: Vec<RepairPatch> = if inputs.repairs.is_empty() {
            apps[0]
                .net_state()
                .repairs()
                .map(|(_, r)| r.clone())
                .collect()
        } else {
            inputs.repairs.clone()
        };
        self.set(
            "patch.hooks_installed",
            repairs.iter().map(|r| r.build_hooks().len()).sum::<usize>() as f64,
        );
        for repair in &repairs {
            for (addr, _) in repair.build_hooks() {
                ejected += cache.eject_blocks_containing(addr);
                let _ = cache.fetch(image, addr);
            }
        }
        self.set("runtime.blocks_ejected_per_op", ejected as f64);

        // Repair-hook cost: the same pages with and without the repairs, cold
        // cache both times. Pages that never reach a repair site fall back to
        // the (survived) exploit page, which always does.
        let mut patched = env_with(image, full);
        for repair in &repairs {
            install_hooks(&mut patched, repair.build_hooks());
        }
        let mut unpatched = env_with(image, full);
        // Only the pages that reach a repair site say anything about its cost;
        // if none does, the (survived) exploit page always does.
        let mut hook_pages: Vec<Vec<Word>> = pages
            .iter()
            .filter(|page| {
                pass_stats(&mut patched, std::slice::from_ref(page), true).hook_invocations > 0
            })
            .cloned()
            .collect();
        if hook_pages.is_empty() {
            hook_pages.push(inputs.exploits[0].clone());
        }
        let hook_pages = &hook_pages[..];
        let invocations = pass_stats(&mut patched, hook_pages, true).hook_invocations;
        let [with_hooks, without]: [f64; 2] =
            interleaved(self.budget, hook_pages, |variant, page| {
                let env = if variant == 0 {
                    &mut patched
                } else {
                    &mut unpatched
                };
                env.flush_cache();
                black_box(env.run(page));
            });
        self.set(
            "patch.repair_hook_ns",
            (with_hooks - without) * 1e9 * hook_pages.len() as f64 / (invocations as f64).max(1.0),
        );

        // `present` against a cold run carrying the same hooks, page by page in
        // one loop: what is left is `present`'s own work.
        let mut app = ProtectedApplication::new(image.clone(), model.clone(), inputs.config);
        let mut cold = env_with(image, full);
        if !inputs.repairs.is_empty() {
            for exploit in &inputs.exploits {
                attack_until_survived(&mut app, exploit);
            }
            for repair in &repairs {
                install_hooks(&mut cold, repair.build_hooks());
            }
        }
        let [present, cold_run]: [f64; 2] = interleaved(self.budget, pages, |variant, page| {
            if variant == 0 {
                black_box(app.present(page));
            } else {
                cold.flush_cache();
                black_box(cold.run(page));
            }
        });
        self.set("core.present_overhead_us", (present - cold_run) * 1e6);

        // The responder's pieces, on the first exploit's failure.
        let failure = env_with(image, full)
            .run(&inputs.exploits[0])
            .failure()
            .cloned()
            .expect("the exploit is detected");
        let candidates = per_call(self.budget, || {
            black_box(candidate_invariants(&failure, model, &inputs.config));
        });
        self.set("core.candidates_us", candidates * 1e6);
        let set = candidate_invariants(&failure, model, &inputs.config);
        let mut failing = RunDigest::with_status(DigestStatus::FailureAt(failure.location));
        for inv in &set.invariants {
            failing.observations.insert(inv.clone(), vec![false]);
        }
        let completed = RunDigest::with_status(DigestStatus::Completed);
        let on_run = per_timed_call(self.budget, || {
            let (mut responder, _) = FailureResponder::new(&failure, model, inputs.config);
            let t = Instant::now();
            for _ in 0..inputs.config.check_runs_required {
                black_box(responder.on_run(&failing, model));
            }
            black_box(responder.on_run(&completed, model));
            t.elapsed()
        });
        self.set(
            "core.responder_on_run_us",
            on_run * 1e6 / f64::from(inputs.config.check_runs_required + 1),
        );
        let (mut responder, _) = FailureResponder::new(&failure, model, inputs.config);
        for _ in 0..inputs.config.check_runs_required {
            responder.on_run(&failing, model);
        }
        let repairgen = per_call(self.budget, || {
            black_box(generate_repairs(
                responder.candidates(),
                responder.classifications(),
                model,
                &inputs.config,
            ));
        });
        self.set("core.repairgen_us", repairgen * 1e6);
    }

    /// `fleet.*`, `store.*` and the fleet-side `core.*` rungs, on a fleet of the
    /// workload's size built the way the fleet workloads build theirs.
    fn fleet_and_store(&mut self, inputs: &Inputs, seed: u64) -> FleetTotals {
        let browser = Browser::build();
        let targets = long_lived_targets(&browser);
        let nodes = inputs.fleet_nodes;
        let suite = cv_apps::expanded_learning_suite();
        let mut rng = Rng::new(seed);
        let make = || {
            Fleet::new(
                browser.image.clone(),
                fleet_clearview_config(),
                fleet_config(nodes),
            )
        };

        let new = per_call(self.budget, || {
            black_box(make());
        });
        self.set("fleet.new_ms", new * 1e3);
        let fresh_learning = per_timed_call(self.budget, || {
            let mut fleet = make();
            timed(|| fleet.distributed_learning(&suite)).1
        });

        // One lifecycle on the fleet every later rung uses.
        let mut fleet = make();
        fleet.distributed_learning(&suite);
        let base = fleet.checkpoint();
        let pool = &inputs.pages;
        let epoch: Vec<Presentation> = (0..inputs.epoch_presentations)
            .map(|i| {
                let node = if inputs.epoch_presentations >= nodes {
                    i % nodes
                } else {
                    rng.below(nodes as u64) as usize
                };
                Presentation::new(node, pool[i % pool.len()].clone())
            })
            .collect();
        // The attack: manager plane, tree merge, patch push.
        let attackers = choose_attackers(&mut rng, targets.len(), nodes);
        let before = fleet.metrics().clone();
        let immunity = immunise(&mut fleet, &targets, &attackers, &[], |f, batch| {
            f.run_epoch(batch);
        });
        let attack = MetricsDelta::between(&before, fleet.metrics());
        self.set("core.epochs_to_immunity", immunity.epochs as f64);
        self.set(
            "core.manager_ms_per_epoch",
            attack.manager_ms / attack.epochs,
        );
        self.set(
            "core.manager_fanout_ms_per_epoch",
            attack.fanout_ms / attack.epochs,
        );
        self.set(
            "fleet.patch_push_ms_per_push",
            attack.push_ms / attack.pushes.max(1.0),
        );
        self.set(
            "fleet.patch_applications_per_push",
            attack.applications / attack.pushes.max(1.0),
        );

        // Benign epochs of the workload's own shape, on the protected fleet: the
        // long-lived fleets run every page past their installed repairs.
        let before = fleet.metrics().clone();
        let wall = per_call(self.budget, || {
            black_box(fleet.run_epoch(&epoch));
        });
        let benign = MetricsDelta::between(&before, fleet.metrics());
        self.set(
            "fleet.execution_ms_per_epoch",
            benign.execution_ms / benign.epochs,
        );
        self.set(
            "fleet.envelopes_per_epoch",
            benign.envelopes / benign.epochs,
        );
        let benign_manager_ms = benign.manager_ms / benign.epochs;
        self.set(
            "fleet.epoch_overhead_ms",
            wall * 1e3 - (benign.execution_ms + benign.manager_ms + benign.push_ms) / benign.epochs,
        );

        // Eight shard plans, one op each, merged through the tree.
        let ops = fleet.net_state().to_plan();
        let plans: Vec<PatchPlan> = (0..8)
            .map(|i| {
                let mut plan = PatchPlan::new();
                let op = &ops.ops()[i % ops.len().max(1)];
                plan.push(op.location + i as Addr, op.directive.clone());
                plan
            })
            .collect();
        let tree = ManagerTree::new(crate::common::TREE_FANOUT);
        let merge = per_call(self.budget, || {
            black_box(tree.merge_plans(plans.clone()));
        });
        self.set("core.plan_merge_us", merge * 1e6);

        // Learning as the workload does it: an increment on the live fleet, or
        // the whole suite on a fresh one.
        if inputs.learns_increments {
            let learning = per_call(self.budget, || {
                let pages: Vec<Vec<Word>> = (0..LEARN_PAGES_PER_WAVE)
                    .map(|_| benign_page(&mut rng))
                    .collect();
                fleet.distributed_learning(&pages);
            });
            self.set("fleet.learning_ms", learning * 1e3);
        } else {
            self.set("fleet.learning_ms", fresh_learning * 1e3);
        }

        // cv-store on this fleet's own checkpoint.
        let one = [Presentation::new(0, pool[0].clone())];
        let checkpoint = per_timed_call(self.budget, || {
            // A checkpoint is memoized per epoch: advance the epoch first.
            fleet.run_epoch(&one);
            timed(|| black_box(fleet.checkpoint())).1
        });
        self.set("fleet.checkpoint_us", checkpoint * 1e6);
        let snapshot = fleet.checkpoint();
        let encoded = snapshot.encode();
        self.set("store.snapshot_bytes", encoded.len() as f64);
        let encode = per_call(self.budget, || {
            black_box(snapshot.encode());
        });
        self.set(
            "store.snapshot_encode_mb_s",
            encoded.len() as f64 / encode / 1e6,
        );
        let decode = per_call(self.budget, || {
            black_box(Snapshot::decode(&encoded).ok());
        });
        self.set(
            "store.snapshot_decode_mb_s",
            encoded.len() as f64 / decode / 1e6,
        );
        let cut = per_call(self.budget, || {
            black_box(fleet.delta_since(&base));
        });
        self.set("store.delta_cut_us", cut * 1e6);
        let delta = fleet.delta_since(&base);
        let delta_encoded = delta.encode();
        let delta_encode = per_call(self.budget, || {
            black_box(delta.encode());
        });
        self.set("store.delta_encode_us", delta_encode * 1e6);
        let apply = per_timed_call(self.budget, || {
            let mut advanced = base.clone();
            let decoded = DeltaSnapshot::decode(&delta_encoded).expect("own delta decodes");
            timed(|| advanced.apply_delta(&decoded).is_ok()).1
        });
        self.set("store.delta_apply_us", apply * 1e6);

        let envelope = Envelope {
            from: COORDINATOR,
            to: 7,
            epoch: 3,
            seq: 11,
            payload: EnvelopePayload::Page(pool[0].clone()),
        };
        let bytes = envelope.encode();
        let enc = per_call(self.budget, || {
            black_box(envelope.encode());
        });
        self.set("store.envelope_encode_ns", enc * 1e9);
        let dec = per_call(self.budget, || {
            black_box(Envelope::decode(&bytes).ok());
        });
        self.set("store.envelope_decode_ns", dec * 1e9);
        let mut transport = InProcessTransport::new();
        let rtt = per_call(self.budget, || {
            transport.send(envelope.clone());
            transport.tick();
            for received in transport.recv(7) {
                transport.send(received.ack());
            }
            transport.tick();
            black_box(transport.recv(COORDINATOR));
        });
        self.set("fleet.transport_rtt_inproc_us", rtt * 1e6);

        // Churn: crash, delta rejoin, full rejoin, warm join — per member.
        let kills = rng.distinct(WAVE_KILLS.min(nodes / 2), nodes);
        let half = kills.len() / 2;
        let crash = per_timed_call(self.budget, || {
            let crashed = timed(|| fleet.apply_membership(MembershipOp::Crash(&kills))).1;
            let base = fleet.checkpoint();
            rejoin_all(&mut fleet, &kills, &base);
            crashed
        });
        self.set("fleet.crash_us", crash * 1e6 / kills.len() as f64);
        let (mut delta_bytes, mut full_bytes) = (0, 0);
        for (name, by_delta) in [
            ("fleet.rejoin_delta_us", true),
            ("fleet.rejoin_full_us", false),
        ] {
            let rejoin = per_timed_call(self.budget, || {
                // Each wave follows an epoch, so the first rejoin pays the
                // snapshot capture and the cut, as in a churn wave.
                let base = fleet.checkpoint();
                fleet.run_epoch_churn(&one, &kills[..half]);
                let t = Instant::now();
                for &node in &kills[..half] {
                    let out = fleet.apply_membership(MembershipOp::Rejoin {
                        node,
                        checkpoint: by_delta.then_some(&base),
                    });
                    if by_delta {
                        delta_bytes = out.bytes;
                    } else {
                        full_bytes = out.bytes;
                    }
                }
                t.elapsed()
            });
            self.set(name, rejoin * 1e6 / half as f64);
        }
        self.set("store.delta_bytes_per_rejoin", delta_bytes as f64);
        self.set("store.bootstrap_bytes_per_rejoin", full_bytes as f64);
        let warm = per_timed_call(self.budget.min(Duration::from_millis(20)), || {
            timed(|| fleet.apply_membership(MembershipOp::JoinWarm)).1
        });
        self.set("fleet.join_warm_us", warm * 1e6);

        // The tier plane's counters over one standard wave (an epoch, the kills,
        // half delta and half full rejoins); the calibration loops above ran
        // an arbitrary number of waves, so the running totals mean nothing.
        let before = fleet.metrics().clone();
        let base = fleet.checkpoint();
        fleet.run_epoch_churn(&one, &kills);
        rejoin_all(&mut fleet, &kills, &base);
        let m = fleet.metrics();
        self.set(
            "fleet.delta_savings",
            (m.delta_full_bytes_total - before.delta_full_bytes_total) as f64
                / ((m.delta_bytes_total - before.delta_bytes_total) as f64).max(1.0),
        );
        self.set(
            "fleet.tier_delta_cuts",
            (m.tier_delta_cuts - before.tier_delta_cuts) as f64,
        );
        self.set(
            "fleet.tier_sync_bytes",
            (m.tier_sync_bytes - before.tier_sync_bytes) as f64,
        );
        self.set(
            "fleet.root_sync_bypass_count",
            m.root_sync_bypass_count as f64,
        );
        self.set("fleet.retransmits", m.retransmits as f64);
        self.set(
            "fleet.resident_bytes_per_member",
            m.member_state_bytes_last as f64 / m.residency_members_last.max(1) as f64,
        );
        FleetTotals {
            benign_manager_ms,
            execution_us_per_page: benign.execution_ms * 1e3 / benign.pages.max(1.0),
            pushes_per_attack: attack.pushes,
        }
    }
}

/// What changed in a fleet's metrics across a stretch of epochs.
struct MetricsDelta {
    epochs: f64,
    pages: f64,
    execution_ms: f64,
    manager_ms: f64,
    fanout_ms: f64,
    push_ms: f64,
    pushes: f64,
    applications: f64,
    envelopes: f64,
}

impl MetricsDelta {
    fn between(before: &FleetMetrics, after: &FleetMetrics) -> MetricsDelta {
        let ms = |a: Duration, b: Duration| (a - b).as_secs_f64() * 1e3;
        MetricsDelta {
            epochs: (after.epochs - before.epochs).max(1) as f64,
            pages: (after.pages_processed - before.pages_processed) as f64,
            execution_ms: ms(after.execution_time, before.execution_time),
            manager_ms: ms(after.manager_time, before.manager_time),
            fanout_ms: ms(after.manager_fanout_time, before.manager_fanout_time),
            push_ms: ms(after.patch_propagation_time, before.patch_propagation_time),
            pushes: (after.patch_pushes - before.patch_pushes) as f64,
            applications: (after.patch_applications - before.patch_applications) as f64,
            envelopes: (after.envelopes_sent - before.envelopes_sent) as f64,
        }
    }
}

/// Fleet figures the reconstruction needs beside the declared rungs.
struct FleetTotals {
    /// Manager time of an epoch in which nothing fails.
    benign_manager_ms: f64,
    /// Execution time per presentation on the protected fleet.
    execution_us_per_page: f64,
    /// Patch pushes one immunisation takes.
    pushes_per_attack: f64,
}

/// The rung-by-rung model of one operation of `workload`, in milliseconds:
/// rung time × calls per op, the calls counted by the traced region's spans.
fn reconstruct(workload: &str, r: &Rungs, fleet: &FleetTotals, rec: &Recorder, ops: f64) -> f64 {
    let totals = rec.totals();
    let per_op = |span: &str| totals.get(span).map_or(0.0, |t| t.count as f64) / ops;
    let us = |name: &str| r.get(name) / 1e3;
    // A cold page under `present`: the machine, the blocks it decodes, the
    // instructions it interprets, the hooks it runs, and `present`'s own work.
    let page_ms = |hooks: f64| {
        us("core.present_overhead_us")
            + us("runtime.machine_new_us")
            + r.get("isa.blocks_built_per_op") * us("isa.block_build_us")
            + r.get("runtime.insts_per_page") * r.get("runtime.interp_ns_per_inst") / 1e6
            + hooks * r.get("patch.repair_hook_ns") / 1e6
    };
    // A presentation through a fleet epoch: its envelope out and its digest
    // back through the codec, and its run on a worker.
    let fleet_page_ms = (fleet.execution_us_per_page
        + (r.get("store.envelope_encode_ns") + r.get("store.envelope_decode_ns")) / 1e3)
        / 1e3;
    let pages = rec.counters().get("op.pages").copied().unwrap_or(0) as f64 / ops;
    match workload {
        "host_browse" | "host_heavy" => {
            per_op("core.present") * page_ms(r.get("runtime.hook_invocations_per_page"))
        }
        "host_repair" => {
            per_op("core.app_new") * us("core.app_new_us")
                + per_op("core.attack_present") * us("core.attack_present_us")
                + per_op("core.present") * page_ms(0.0)
        }
        "fleet_steady" => {
            pages * fleet_page_ms + per_op("fleet.run_epoch") * fleet.benign_manager_ms
        }
        "fleet_outbreak" => {
            // Two epochs (the benign one, the verification) see no failure; the
            // rest are attack epochs, with the auxiliary attack's pushes.
            let epochs = per_op("fleet.run_epoch");
            per_op("fleet.new") * r.get("fleet.new_ms")
                + per_op("fleet.learning") * r.get("fleet.learning_ms")
                + pages * fleet_page_ms
                + 2.0 * fleet.benign_manager_ms
                + (epochs - 2.0).max(0.0) * r.get("core.manager_ms_per_epoch")
                + fleet.pushes_per_attack * r.get("fleet.patch_push_ms_per_push")
        }
        "fleet_churn" => {
            per_op("fleet.checkpoint") * us("fleet.checkpoint_us")
                + per_op("fleet.learning") * r.get("fleet.learning_ms")
                + pages * fleet_page_ms
                + (per_op("fleet.run_epoch_churn") + per_op("fleet.run_epoch"))
                    * fleet.benign_manager_ms
                + per_op("fleet.rejoin")
                    * (WAVE_KILLS as f64 / 2.0)
                    * (2.0 * us("fleet.crash_us")
                        + us("fleet.rejoin_delta_us")
                        + us("fleet.rejoin_full_us"))
        }
        _ => 0.0,
    }
}

/// Calibrate every rung on `inputs` and close the ladder against the traced
/// region. Returns every `per_layer` metric.
pub fn measure(
    workload: &str,
    inputs: &Inputs,
    seed: u64,
    untraced: &Region,
    traced: &Region,
    rec: &Recorder,
    smoke: bool,
) -> BTreeMap<&'static str, MetricValue> {
    let mut r = Rungs {
        budget: if smoke { SMOKE_BUDGET } else { RUNG_BUDGET },
        values: BTreeMap::new(),
    };
    r.isa_and_runtime(inputs);
    let model = r.inference(inputs);
    r.patch_and_core(inputs, &model);
    let fleet = r.fleet_and_store(inputs, seed);
    r.floor(r.get("store.snapshot_bytes") as usize);

    let ops = traced.ops.max(1) as f64;
    // The mean, not the median: the reconstruction sums rung means.
    let op_ms = traced.op_mean_ns / 1e6;
    let reconstructed = reconstruct(workload, &r, &fleet, rec, ops);
    r.set("trace.op_ms", op_ms);
    r.set("trace.reconstructed_ms", reconstructed);
    r.set("trace.unattributed_share", (op_ms - reconstructed) / op_ms);
    r.set(
        "trace.overhead_pct",
        (traced.op_p50_ns - untraced.op_p50_ns) / untraced.op_p50_ns * 100.0,
    );
    r.set(
        "trace.spans",
        (rec.spans().len() as u64 + rec.dropped()) as f64,
    );

    PER_LAYER
        .iter()
        .map(|spec| {
            (
                spec.name,
                MetricValue {
                    value: r.get(spec.name),
                    unit: spec.unit,
                },
            )
        })
        .collect()
}
