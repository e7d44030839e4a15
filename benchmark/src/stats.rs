//! Order statistics the reports are built from.

/// Sorts timings ascending. Timings are finite by construction.
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
}

/// 1-based nearest rank of percentile `pct` in a sample of `n`.
fn rank(n: usize, pct: u32) -> usize {
    (n * pct as usize).div_ceil(100).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending sample (0 when empty).
pub fn percentile(sorted: &[f64], pct: u32) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), pct) - 1]
}

/// Median of an unsorted sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// How many of `n` samples lie strictly beyond percentile `pct`.
pub fn samples_beyond(n: usize, pct: u32) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, pct)
    }
}

/// Percentiles a tail may be reported at, highest first.
pub const TAIL_LADDER: [u32; 4] = [99, 95, 90, 75];
/// A tail percentile needs this many samples beyond it to mean anything.
pub const MIN_BEYOND: usize = 10;

/// The highest ladder percentile with at least [`MIN_BEYOND`] samples
/// beyond it in a sample of `n`; the lowest rung when none qualifies (the
/// report then shows the short count next to it).
pub fn tail_percentile(n: usize) -> u32 {
    TAIL_LADDER
        .into_iter()
        .find(|&pct| samples_beyond(n, pct) >= MIN_BEYOND)
        .unwrap_or(TAIL_LADDER[TAIL_LADDER.len() - 1])
}

/// How a workload's measured phase is summarised. Fixed per workload from
/// its nominal op count, never from the count a run happened to reach, so
/// neither the window count nor the percentile flips between runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Plan {
    /// Equal-time windows the figures are medians over (1: whole phase).
    pub windows: usize,
    /// The percentile `latency_tail_ms` reports.
    pub tail_pct: u32,
    /// Memory is read when this many ops have completed: the stack grows
    /// with every op, so memory at the end of a timed phase would rise
    /// with throughput.
    pub memory_after: usize,
}

/// Windows a phase is cut into when it has the ops for it.
const WINDOWS: usize = 10;
/// A window must carry a tail of at least this percentile to be worth it.
const WINDOWED_TAIL_FLOOR: u32 = 95;

impl Plan {
    /// Plans for a phase expected to complete `nominal_ops`, with a factor
    /// two to spare: the tail percentile must keep [`MIN_BEYOND`] samples
    /// beyond it *in every window* at half the nominal count, and memory
    /// is read at that count. A phase too sparse for ten windows with a
    /// p95 or better is summarised whole.
    pub fn for_nominal(nominal_ops: usize) -> Plan {
        let spare = nominal_ops / 2;
        let windowed = tail_percentile(spare / WINDOWS);
        let (windows, tail_pct) = if samples_beyond(spare / WINDOWS, windowed) >= MIN_BEYOND
            && windowed >= WINDOWED_TAIL_FLOOR
        {
            (WINDOWS, windowed)
        } else {
            (1, tail_percentile(spare))
        };
        Plan {
            windows,
            tail_pct,
            memory_after: spare,
        }
    }
}

/// Throughput and latency of one measured phase.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub throughput_ops_s: f64,
    pub latency_p50_ms: f64,
    pub latency_tail_ms: f64,
    /// Fewest samples beyond the tail percentile in any window.
    pub tail_beyond: usize,
}

/// Summarises completed ops, given as `(completion time s, latency ms)`
/// over a phase of `wall_s` seconds.
///
/// The host this runs on has bursts of stolen CPU lasting a fraction of a
/// second. So a phase with enough ops is cut into equal-time windows and
/// every figure is the median over the windows: a burst spoils a window,
/// not the run.
pub fn summarize(ops: &[(f64, f64)], wall_s: f64, plan: Plan) -> Summary {
    let width = wall_s / plan.windows as f64;
    let mut latencies: Vec<Vec<f64>> = vec![Vec::new(); plan.windows];
    for &(end_s, latency_ms) in ops {
        let w = if width > 0.0 {
            (end_s / width) as usize
        } else {
            0
        };
        latencies[w.min(plan.windows - 1)].push(latency_ms);
    }
    let mut per_window = [Vec::new(), Vec::new(), Vec::new()];
    let mut tail_beyond = usize::MAX;
    for lat in &mut latencies {
        sort(lat);
        per_window[0].push(if width > 0.0 {
            lat.len() as f64 / width
        } else {
            0.0
        });
        per_window[1].push(percentile(lat, 50));
        per_window[2].push(percentile(lat, plan.tail_pct));
        tail_beyond = tail_beyond.min(samples_beyond(lat.len(), plan.tail_pct));
    }
    Summary {
        throughput_ops_s: median(&per_window[0]),
        latency_p50_ms: median(&per_window[1]),
        latency_tail_ms: median(&per_window[2]),
        tail_beyond,
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes them
/// (the exclusive method) — the acceptance rule is stated in those terms.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    sort(&mut v);
    let m = v.len();
    let mut out = [0.0; 3];
    for (slot, i) in (1..4usize).enumerate() {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        out[slot] = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_picks_the_highest_percentile_with_ten_beyond() {
        // p99 of 1000 leaves exactly 10 beyond; one fewer sample drops a rung.
        assert_eq!(samples_beyond(1000, 99), 10);
        assert_eq!(tail_percentile(1000), 99);
        assert_eq!(tail_percentile(999), 95);
        assert_eq!(tail_percentile(200), 95);
        assert_eq!(tail_percentile(199), 90);
        assert_eq!(tail_percentile(100), 90);
        assert_eq!(tail_percentile(99), 75);
        assert_eq!(tail_percentile(40), 75);
        // Too few for any rung: the lowest is reported, with its count.
        assert_eq!(tail_percentile(12), 75);
        assert!(samples_beyond(12, 75) < MIN_BEYOND);
        assert_eq!(samples_beyond(0, 99), 0);
    }

    #[test]
    fn plan_is_fixed_by_the_nominal_count_with_a_factor_two_to_spare() {
        let plan = |nominal: usize| {
            let p = Plan::for_nominal(nominal);
            assert_eq!(p.memory_after, nominal / 2);
            (p.windows, p.tail_pct)
        };
        // 40 000 nominal: 2 000 per window at half rate, p99 keeps 20 beyond.
        assert_eq!(plan(40_000), (10, 99));
        // 18 000 nominal: 900 per window at half rate, p99 would keep 9.
        assert_eq!(plan(18_000), (10, 95));
        assert_eq!(plan(5_000), (10, 95));
        // Below 200 per window a window's tail would be under p95: whole phase.
        assert_eq!(plan(3_999), (1, 99));
        assert_eq!(plan(1_100), (1, 95));
        assert_eq!(plan(90), (1, 75));
    }

    #[test]
    fn summary_is_a_median_over_windows_and_shrugs_off_a_burst() {
        // 10 s at 1 000 ops/s and 1 ms each; the fourth second is a burst:
        // a third of the ops, ten times the latency.
        let mut ops = Vec::new();
        for ms in 0..10_000 {
            let burst = (3_000..4_000).contains(&ms);
            if !burst || ms % 3 == 0 {
                ops.push((ms as f64 / 1e3, if burst { 10.0 } else { 1.0 }));
            }
        }
        let windowed = Plan {
            windows: 10,
            tail_pct: 95,
            memory_after: 0,
        };
        let s = summarize(&ops, 10.0, windowed);
        assert_eq!(s.throughput_ops_s, 1000.0);
        assert_eq!((s.latency_p50_ms, s.latency_tail_ms), (1.0, 1.0));
        assert_eq!(s.tail_beyond, samples_beyond(334, 95));
        // The same phase summarised whole carries the burst in its tail.
        let whole = Plan {
            windows: 1,
            tail_pct: 99,
            memory_after: 0,
        };
        let s = summarize(&ops, 10.0, whole);
        assert!((s.throughput_ops_s - 933.4).abs() < 0.1);
        assert_eq!(s.latency_tail_ms, 10.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 5.0);
        assert_eq!(percentile(&v, 90), 9.0);
        assert_eq!(percentile(&v, 99), 10.0);
        assert_eq!(percentile(&[], 50), 0.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
