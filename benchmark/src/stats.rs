//! The benchmark's statistics: quantiles, tail-percentile selection, the
//! slice-median rate, and the two `/proc/self` readers (CPU time, peak resident
//! set). Medians are `cv_perf::stats::median` (nearest rank).

use cv_perf::stats::median;

/// The percentiles a tail may be reported at, lowest first, with the share of
/// samples beyond each as one in so many.
pub const TAIL_PERCENTILES: [(f64, u64); 5] = [
    (50.0, 2),
    (90.0, 10),
    (99.0, 100),
    (99.9, 1_000),
    (99.99, 10_000),
];

/// The highest of [`TAIL_PERCENTILES`] that still has at least ten of `samples`
/// beyond it; `None` when even the median does not (fewer than 20 samples).
pub fn tail_percentile(samples: u64) -> Option<f64> {
    TAIL_PERCENTILES
        .iter()
        .rev()
        .find(|(_, one_in)| samples / one_in >= 10)
        .map(|(percentile, _)| *percentile)
}

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by linear interpolation between
/// ranks; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// A timed region cut into slices of equal op count and equal op mix (the
/// harness cuts at whole passes): the work each slice completed and the wall
/// time it took. A throughput is the **median over the slices** of the slice's
/// rate, not total ÷ wall, so a burst of neighbour noise that slows a few
/// slices does not move it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Slices {
    units: Vec<u64>,
    wall_ns: Vec<u64>,
}

impl Slices {
    pub fn push(&mut self, units: u64, wall_ns: u64) {
        self.units.push(units);
        self.wall_ns.push(wall_ns);
    }

    pub fn len(&self) -> usize {
        self.wall_ns.len()
    }

    /// The median over the slices of work per second; 0 when empty.
    pub fn median_rate(&self) -> f64 {
        let rates: Vec<f64> = self
            .units
            .iter()
            .zip(&self.wall_ns)
            .filter(|(_, wall)| **wall > 0)
            .map(|(units, wall)| *units as f64 / (*wall as f64 / 1e9))
            .collect();
        median(&rates)
    }
}

/// Kernel clock ticks per second as `/proc` reports them: `USER_HZ`, fixed at 100
/// on every Linux architecture.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds from one line of `/proc/<pid>/stat`. The command
/// name (field 2) may hold spaces and parentheses, so fields are counted from
/// the last `)`: `utime` and `stime` are fields 14 and 15.
pub fn parse_stat_cpu_seconds(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime is 11 fields further on.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// Process CPU seconds (all threads, user + system) so far.
pub fn process_cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu_seconds(&s))
        .unwrap_or(0.0)
}

/// A `kB` field of `/proc/<pid>/status` (e.g. `VmHWM`), in bytes.
pub fn parse_status_kb(status: &str, field: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        let kb: u64 = rest.trim().strip_suffix("kB")?.trim().parse().ok()?;
        Some(kb * 1024)
    })
}

/// Peak resident set size of this process so far (`VmHWM`), in bytes.
pub fn peak_rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_kb(&s, "VmHWM"))
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_median_ignores_one_slow_slice() {
        // Four slices of ten one-unit ops, 1 ms an op — except the second
        // slice's ops, which take 10 ms each.
        let mut slices = Slices::default();
        for wall_ms in [10, 100, 10, 10] {
            slices.push(10, wall_ms * 1_000_000);
        }
        assert_eq!(slices.len(), 4);
        let rate = slices.median_rate();
        assert!(
            (rate - 1000.0).abs() < 1e-6,
            "median slice rate, got {rate}"
        );
        // total / wall would have reported 40 ops / 0.13 s ≈ 308/s.
        assert_eq!(Slices::default().median_rate(), 0.0);
    }

    #[test]
    fn slices_weight_work_units() {
        let mut slices = Slices::default();
        slices.push(8, 2_000_000);
        slices.push(8, 2_000_000);
        slices.push(2, 1_000_000);
        assert!((slices.median_rate() - 4000.0).abs() < 1e-6);
    }

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(
            (quantile(&v, 0.5), quantile(&v, 0.9), quantile(&v, 1.0)),
            (50.0, 90.0, 100.0)
        );
        assert_eq!(quantile(&[1.0, 2.0], 0.25), 1.25);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(1_000_000), Some(99.99));
    }

    #[test]
    fn stat_parsing_survives_hostile_command_names() {
        let line = "4242 (a b) c) R 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 3 0 100 1 2";
        assert_eq!(parse_stat_cpu_seconds(line), Some(3.0));
        assert_eq!(parse_stat_cpu_seconds("no paren"), None);
        assert_eq!(parse_stat_cpu_seconds("1 (x) R 1 2"), None);
        assert!(process_cpu_seconds() >= 0.0);
    }

    #[test]
    fn status_parsing_reads_kb_fields() {
        let status = "Name:\tx\nVmPeak:\t  100 kB\nVmHWM:\t    2048 kB\nThreads:\t3\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(2048 * 1024));
        assert_eq!(parse_status_kb(status, "VmRSS"), None);
        assert!(peak_rss_bytes() > 0);
    }
}
