//! One benchmark run of one workload: set-up with its untimed first pass over
//! the op list (several times), the timed region, the secondary rejoin loop
//! where the operation rejoins nobody, and — on a traced run — the ladder.

use crate::ladder;
use crate::metrics::{MetricValue, END_TO_END};
use crate::spans::Recorder;
use crate::stats::{peak_rss_bytes, process_cpu_seconds, quantile, tail_percentile, Slices};
use crate::workloads::{self, OpResult, Workload};
use cv_perf::stats::median;
use std::collections::BTreeMap;
use std::time::Instant;

/// Set-ups performed back to back, each followed by its first pass; `setup_s`
/// is the median of the seven and the last one's products are used.
pub const SETUPS: usize = 7;
/// Slices the timed region is aimed to be cut into (each a whole number of
/// passes): at least 20 remain when the region runs a sixth slower than the
/// first pass predicted.
pub const SLICES: usize = 24;
/// Seconds of the secondary rejoin loop, and the iterations it runs at least.
const REJOIN_LOOP_SECONDS: f64 = 2.0;
const REJOIN_LOOP_MIN: usize = 20;
/// Spans kept by a traced run; later ones are counted as dropped.
const SPAN_CAP: usize = 1_500_000;

/// How a run was asked for.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// All oracles on, tiny sizes, no noise rules: a CI step, not a measurement.
    pub smoke: bool,
}

/// What the passes of one kind (untraced, or traced) of a timed region
/// measured.
#[derive(Debug, Clone)]
pub struct Region {
    pub ops: u64,
    pub failed: u64,
    pub pages: u64,
    pub wall_s: f64,
    pub slices: usize,
    /// Medians over the slices of the slice's rate.
    pub pages_per_s: f64,
    pub rejoins_per_s: f64,
    /// Every successful op's latency: count, mean, median, 90th percentile, and
    /// the highest percentile with ten samples beyond it as `(percentile,
    /// latency)`. A failed op has no latency.
    pub op_samples: u64,
    pub op_mean_ns: f64,
    pub op_p50_ns: f64,
    pub op_p90_ns: f64,
    pub op_tail: Option<(f64, f64)>,
    /// Median time to immunity over the ops, where ops are attacks.
    pub immunity_ns: Option<f64>,
}

/// What the untimed first pass pinned: exact counts and the digest.
#[derive(Debug, Clone, Default)]
pub struct FirstPass {
    pub ops: u64,
    pub failed: u64,
    pub immunity_epochs_sum: u64,
    pub immunity_ops: u64,
    pub rejoins: u64,
    pub sync_bytes: u64,
    pub wall_s: f64,
    pub digest: u32,
    /// `VmHWM` once the first operation had returned.
    pub first_op_peak_rss: u64,
}

/// Everything a run reports.
pub struct RunReport {
    pub args: RunArgs,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub digest: u32,
    pub metrics: BTreeMap<&'static str, MetricValue>,
    /// Reported beside the metrics, never gated.
    pub diagnostics: BTreeMap<&'static str, f64>,
    pub recorder: Option<Recorder>,
}

fn first_pass(w: &mut dyn Workload) -> FirstPass {
    let mut rec = Recorder::disabled();
    let mut fp = FirstPass::default();
    let start = Instant::now();
    for idx in 0..w.op_count() {
        let r = w.run_op(idx, true, &mut rec);
        fp.ops += 1;
        fp.failed += u64::from(r.failed);
        if let Some(e) = r.immunity_epochs {
            fp.immunity_epochs_sum += e;
            fp.immunity_ops += 1;
        }
        fp.rejoins += r.rejoins;
        fp.sync_bytes += r.sync_bytes;
        if idx == 0 {
            fp.first_op_peak_rss = peak_rss_bytes();
        }
    }
    fp.wall_s = start.elapsed().as_secs_f64();
    fp.digest = w.digest();
    fp
}

/// The per-op columns of the passes of one kind, pre-sized from the first
/// pass's rate so memory does not grow inside the region.
struct Tally {
    /// Latency per op; 0 for a failed op, which counts as missing any latency.
    durations_ns: Vec<u64>,
    /// Time to immunity per op; 0 where the op is not an attack.
    immunity_ns: Vec<u64>,
    pages: Vec<u64>,
    rejoins: Vec<u64>,
    /// Where each slice ends: `(ops so far, clock so far)`.
    marks: Vec<(usize, u64)>,
    /// This tally's own clock: its passes laid end to end.
    clock_ns: u64,
    passes: usize,
    failed: u64,
}

impl Tally {
    fn new(expected_ops: usize) -> Tally {
        let column = || Vec::with_capacity(expected_ops);
        Tally {
            durations_ns: column(),
            immunity_ns: column(),
            pages: column(),
            rejoins: column(),
            marks: Vec::with_capacity(4 * SLICES),
            clock_ns: 0,
            passes: 0,
            failed: 0,
        }
    }

    fn record(&mut self, r: &OpResult, duration_ns: u64) {
        self.failed += u64::from(r.failed);
        self.durations_ns
            .push(if r.failed { 0 } else { duration_ns.max(1) });
        self.immunity_ns
            .push(r.immunity_ns.filter(|_| !r.failed).unwrap_or(0));
        self.pages.push(r.pages);
        self.rejoins.push(r.rejoins);
    }

    fn end_pass(&mut self, pass_ns: u64, passes_per_slice: usize) {
        self.clock_ns += pass_ns;
        self.passes += 1;
        if self.passes.is_multiple_of(passes_per_slice) {
            self.marks.push((self.durations_ns.len(), self.clock_ns));
        }
    }

    fn finish(mut self) -> Region {
        // A region too short for two slices is one slice.
        if self.marks.len() < 2 {
            self.marks = vec![(self.durations_ns.len(), self.clock_ns)];
        }
        let (mut page_slices, mut rejoin_slices) = (Slices::default(), Slices::default());
        let (mut op0, mut clock0) = (0, 0);
        for &(ops, clock_ns) in &self.marks {
            let wall = clock_ns - clock0;
            page_slices.push(self.pages[op0..ops].iter().sum(), wall);
            rejoin_slices.push(self.rejoins[op0..ops].iter().sum(), wall);
            (op0, clock0) = (ops, clock_ns);
        }
        let successful = |column: &[u64]| -> Vec<f64> {
            column
                .iter()
                .filter(|ns| **ns > 0)
                .map(|ns| *ns as f64)
                .collect()
        };
        let latencies = successful(&self.durations_ns);
        let immunities = successful(&self.immunity_ns);
        Region {
            ops: self.durations_ns.len() as u64,
            failed: self.failed,
            pages: self.pages.iter().sum(),
            wall_s: self.clock_ns as f64 / 1e9,
            slices: page_slices.len(),
            pages_per_s: page_slices.median_rate(),
            rejoins_per_s: rejoin_slices.median_rate(),
            op_samples: latencies.len() as u64,
            op_mean_ns: latencies.iter().sum::<f64>() / latencies.len().max(1) as f64,
            op_p50_ns: quantile(&latencies, 0.5),
            op_p90_ns: quantile(&latencies, 0.9),
            op_tail: tail_percentile(latencies.len() as u64)
                .map(|p| (p, quantile(&latencies, p / 100.0))),
            immunity_ns: (!immunities.is_empty()).then(|| median(&immunities)),
        }
    }
}

/// Replay the op list in whole passes until `seconds` have elapsed.
/// `expected_ops` is what the first pass's rate predicts for the region.
///
/// The region is cut into about [`SLICES`] slices of a whole number of passes
/// each, so every slice holds the same ops. With a recorder, untraced and
/// traced passes **alternate** (pass 0 untraced, pass 1 traced, …), so both
/// kinds see the same stretch of the machine and their difference is the
/// tracing, not the minute they ran in. Returns the untraced passes and, with a
/// recorder, the traced ones.
fn timed_region(
    w: &mut dyn Workload,
    seconds: f64,
    mut recorder: Option<&mut Recorder>,
    expected_ops: usize,
) -> (Region, Option<Region>) {
    let kinds = if recorder.is_some() { 2 } else { 1 };
    let expected_passes = expected_ops / w.op_count().max(1) / kinds;
    let passes_per_slice = (expected_passes / SLICES).max(1);
    // Half again as many ops as predicted, so the columns never reallocate.
    let capacity = expected_ops * 3 / 2 / kinds + w.op_count();
    let mut off = Recorder::disabled();
    let mut tallies = [Tally::new(capacity), Tally::new(capacity)];
    let start = Instant::now();
    let mut pass = 0usize;
    while start.elapsed().as_secs_f64() < seconds {
        let traced = recorder.is_some() && pass % 2 == 1;
        let rec: &mut Recorder = match (&mut recorder, traced) {
            (Some(rec), true) => rec,
            _ => &mut off,
        };
        let tally = &mut tallies[usize::from(traced)];
        let pass_start = Instant::now();
        for idx in 0..w.op_count() {
            rec.set_op(tally.durations_ns.len() as u64);
            let t = Instant::now();
            let span = rec.enter("op");
            let r: OpResult = w.run_op(idx, false, rec);
            rec.exit(span);
            tally.record(&r, t.elapsed().as_nanos() as u64);
            rec.count("op.pages", r.pages);
            rec.count("op.rejoins", r.rejoins);
            rec.count("op.failed", u64::from(r.failed));
        }
        tally.end_pass(pass_start.elapsed().as_nanos() as u64, passes_per_slice);
        pass += 1;
    }
    let [untraced, traced] = tallies;
    (
        untraced.finish(),
        recorder.is_some().then(|| traced.finish()),
    )
}

/// What the secondary rejoin loop measured.
struct RejoinLoop {
    rejoins_per_s: f64,
    bytes_per_rejoin: f64,
    rejoins: u64,
    failed: u64,
}

/// Where the workload's own operation rejoins nobody: a closed loop of its
/// `rejoin_once` for `seconds`, on the state the region left behind. The rate
/// is rejoins over the median iteration.
fn rejoin_loop(w: &mut dyn Workload, seconds: f64) -> Option<RejoinLoop> {
    let mut times = Vec::new();
    let (mut rejoins, mut bytes, mut failed) = (0, 0, 0);
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds || times.len() < REJOIN_LOOP_MIN {
        let t = Instant::now();
        let r = w.rejoin_once()?;
        times.push(t.elapsed().as_secs_f64());
        rejoins += r.rejoins;
        bytes += r.sync_bytes;
        if !r.ok {
            failed += r.rejoins;
        }
    }
    Some(RejoinLoop {
        rejoins_per_s: rejoins as f64 / times.len() as f64 / median(&times),
        bytes_per_rejoin: bytes as f64 / rejoins as f64,
        rejoins,
        failed,
    })
}

/// Run one workload once and report every metric the run kind owes.
pub fn run(args: RunArgs) -> Result<RunReport, String> {
    let setups = if args.smoke { 1 } else { SETUPS };
    let mut setup_times = Vec::with_capacity(setups);
    let mut setup_immunity_ms = Vec::new();
    let (mut warm_ops, mut warm_failed) = (0, 0);
    let mut peak_rss_mb = None;
    let mut workload = None;
    for _ in 0..setups {
        drop(workload.take());
        let t = Instant::now();
        let mut w = workloads::build(&args.workload, args.seed, args.smoke)
            .ok_or_else(|| format!("unknown workload `{}`", args.workload))?;
        let fp = first_pass(w.as_mut());
        setup_times.push(t.elapsed().as_secs_f64());
        if let Some(ns) = w.setup_facts().immunity_ns {
            setup_immunity_ms.push(ns as f64 / 1e6);
        }
        // The first set-up's reading, after its first operation: a fixed amount
        // of work on a fresh heap. What the allocator keeps of later work differs
        // from run to run with two worker threads (one seed: 28–42 MB after seven
        // `fleet_churn` set-ups, 27–40 MB after seven `fleet_outbreak`
        // lifecycles), and the long-lived fleets' logs grow with every op.
        peak_rss_mb.get_or_insert(fp.first_op_peak_rss as f64 / (1024.0 * 1024.0));
        warm_ops += fp.ops;
        warm_failed += fp.failed;
        workload = Some((w, fp));
    }
    let (mut w, fp) = workload.expect("at least one set-up");
    let setup_s = median(&setup_times);
    let facts = w.setup_facts();
    let peak_rss_mb = peak_rss_mb.expect("at least one set-up");

    let expected_ops = (fp.ops as f64 / fp.wall_s.max(1e-6) * args.seconds) as usize;
    let mut recorder = args.trace.then(|| Recorder::enabled(SPAN_CAP));
    let cpu0 = process_cpu_seconds();
    let (region, traced_region) =
        timed_region(w.as_mut(), args.seconds, recorder.as_mut(), expected_ops);
    let region_cpu_s = process_cpu_seconds() - cpu0;
    let region_peak_rss_mb = peak_rss_bytes() as f64 / (1024.0 * 1024.0);
    let traced = recorder.zip(traced_region);

    let after_ok = w.after_region();
    let rejoin = rejoin_loop(
        w.as_mut(),
        if args.smoke {
            0.05
        } else {
            REJOIN_LOOP_SECONDS
        },
    );

    let mut failed = warm_failed + region.failed;
    let mut attempted = warm_ops + region.ops;
    if let Some((_, t)) = &traced {
        failed += t.failed;
        attempted += t.ops;
    }
    if let Some(r) = &rejoin {
        failed += r.failed;
        attempted += r.rejoins;
    }
    let correct = failed == 0 && after_ok;

    let mut metrics = BTreeMap::new();
    let mut diagnostics = BTreeMap::new();
    let mut recorder = None;
    if let Some((rec, traced_region)) = traced {
        let inputs = w.ladder_inputs();
        let layers = ladder::measure(
            &args.workload,
            &inputs,
            args.seed,
            &region,
            &traced_region,
            &rec,
            args.smoke,
        );
        metrics.extend(layers);
        recorder = Some(rec);
    } else {
        // The contract wants every end-to-end metric on every workload. Where
        // the operation is not an attack, immunity is the set-up's own attack;
        // where it rejoins nobody, rejoins are the secondary loop's.
        let ms = |ns: f64| ns / 1e6;
        let immunity_ms = match region.immunity_ns {
            Some(ns) => ms(ns),
            None => median(&setup_immunity_ms),
        };
        let immunity_epochs = if fp.immunity_ops > 0 {
            fp.immunity_epochs_sum as f64 / fp.immunity_ops as f64
        } else {
            facts.immunity_epochs.unwrap_or(0.0)
        };
        let (rejoins_per_s, bytes_per_rejoin) = match &rejoin {
            Some(r) => (r.rejoins_per_s, r.bytes_per_rejoin),
            None => (
                region.rejoins_per_s,
                fp.sync_bytes as f64 / fp.rejoins.max(1) as f64,
            ),
        };
        let values: [(&'static str, f64); 11] = [
            ("pages_per_s", region.pages_per_s),
            ("rejoins_per_s", rejoins_per_s),
            ("op_p50_ms", ms(region.op_p50_ns)),
            ("op_p90_ms", ms(region.op_p90_ns)),
            (
                "cpu_us_per_page",
                region_cpu_s * 1e6 / region.pages.max(1) as f64,
            ),
            ("time_to_immunity_ms", immunity_ms),
            ("epochs_to_immunity", immunity_epochs),
            ("sync_bytes_per_rejoin", bytes_per_rejoin),
            ("bytes_per_member", facts.bytes_per_member),
            ("peak_rss_mb", peak_rss_mb),
            ("setup_s", setup_s),
        ];
        for (name, value) in values {
            let spec = END_TO_END
                .iter()
                .find(|m| m.name == name)
                .expect("every reported metric is declared");
            metrics.insert(
                spec.name,
                MetricValue {
                    value,
                    unit: spec.unit,
                },
            );
        }
        let (tail_pct, tail_ns) = region.op_tail.unwrap_or((0.0, 0.0));
        diagnostics.insert("op_samples", region.op_samples as f64);
        diagnostics.insert("op_tail_pct", tail_pct);
        diagnostics.insert("op_tail_ms", ms(tail_ns));
        diagnostics.insert("slices", region.slices as f64);
        diagnostics.insert("region_s", region.wall_s);
        diagnostics.insert("region_ops", region.ops as f64);
        diagnostics.insert("region_pages", region.pages as f64);
        diagnostics.insert("first_pass_s", fp.wall_s);
        diagnostics.insert("region_peak_rss_mb", region_peak_rss_mb);
    }

    Ok(RunReport {
        args,
        correct,
        attempted,
        failed,
        digest: fp.digest,
        metrics,
        diagnostics,
        recorder,
    })
}
