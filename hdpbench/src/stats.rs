//! Order statistics used by the runner and the compare command.

/// Nearest-rank percentile of already-sorted samples: the smallest
/// sample with at least `q` of all samples at or below it. `None` when
/// there are no samples.
#[must_use]
pub fn percentile_sorted(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    #[allow(
        clippy::cast_precision_loss,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )]
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// Median of a small set of measurements (mean of the middle two for
/// an even count). `None` when empty.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The three quartile cut points, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default `exclusive`
/// method). `None` for fewer than two values.
#[must_use]
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let n = 4usize;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / n).clamp(1, ld - 1);
        #[allow(clippy::cast_precision_loss, clippy::cast_possible_wrap)]
        let delta = (i * m) as f64 - (j * n) as f64;
        #[allow(clippy::cast_precision_loss)]
        let nf = n as f64;
        *slot = (v[j - 1] * (nf - delta) + v[j] * delta) / nf;
    }
    Some(out)
}

/// A measurement window being filled: whole rounds of a workload's
/// operations.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// Operations that completed without failing.
    pub completed: u64,
    /// Latency of every operation attempted in the window.
    pub latencies_ns: Vec<u64>,
}

/// A finished window's figures. Only these are kept, so the
/// benchmark's own memory does not grow with the run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowStat {
    /// Completed operations per second.
    pub ops_per_s: f64,
    /// Median latency, µs.
    pub p50_us: f64,
    /// 99th-percentile latency, µs.
    pub p99_us: f64,
}

impl Window {
    /// Adds another window's operations (a client thread's share of a
    /// pass).
    pub fn merge(&mut self, other: Window) {
        self.completed += other.completed;
        self.latencies_ns.extend(other.latencies_ns);
    }

    /// Finishes the window after `seconds` of wall time. `None` when it
    /// holds no operation.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn finish(mut self, seconds: f64) -> Option<WindowStat> {
        self.latencies_ns.sort_unstable();
        Some(WindowStat {
            ops_per_s: self.completed as f64 / seconds,
            p50_us: percentile_sorted(&self.latencies_ns, 0.5)? as f64 / 1000.0,
            p99_us: percentile_sorted(&self.latencies_ns, 0.99)? as f64 / 1000.0,
        })
    }
}

/// The end-to-end figures of a run: medians over its windows, so a
/// short disturbance on a shared host moves one window, not the run.
/// `None` when there are no windows.
#[must_use]
pub fn summarize(windows: &[WindowStat]) -> Option<WindowStat> {
    let col = |f: fn(&WindowStat) -> f64| median(&windows.iter().map(f).collect::<Vec<_>>());
    Some(WindowStat {
        ops_per_s: col(|w| w.ops_per_s)?,
        p50_us: col(|w| w.p50_us)?,
        p99_us: col(|w| w.p99_us)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 0.5), Some(50));
        assert_eq!(percentile_sorted(&v, 0.99), Some(99));
        assert_eq!(percentile_sorted(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), Some(2.5));
    }

    #[test]
    fn summaries_are_medians_over_windows() {
        let w = |completed, lat: &[u64]| Window {
            completed,
            latencies_ns: lat.to_vec(),
        };
        let mut first = w(4, &[1000, 3000]);
        first.merge(w(6, &[2000]));
        let windows: Vec<WindowStat> = [
            (first, 1.0),
            (w(30, &[4000, 5000, 6000]), 1.0),
            (w(20, &[9000, 8000, 7000]), 1.0),
        ]
        .into_iter()
        .map(|(w, s)| w.finish(s).unwrap())
        .collect();
        assert_eq!(windows[0].p99_us, 3.0);
        let s = summarize(&windows).unwrap();
        assert_eq!(s.ops_per_s, 20.0);
        assert_eq!(s.p50_us, 5.0);
        assert_eq!(s.p99_us, 6.0);
        assert_eq!(summarize(&[]), None);
        assert_eq!(Window::default().finish(1.0), None);
    }
}
