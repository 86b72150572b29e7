//! Order statistics and the measurement window.

use std::time::{Duration, Instant};

/// A percentile is reported only when at least this many samples lie
/// beyond it; below that, one outlier decides it.
pub const MIN_TAIL: usize = 10;

/// Nearest-rank index (1-based) of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Quantile `q` of ascending `sorted`, or `None` when fewer than
/// [`MIN_TAIL`] samples lie beyond it (so p99 needs 1,000 samples).
pub fn supported_quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let r = rank(sorted.len(), q);
    (sorted.len() - r >= MIN_TAIL).then(|| sorted[r - 1])
}

/// Median of `values` (nearest rank), 0 for an empty set.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), 0.5) - 1]
}

/// The timed window of a run. Ops start only while it is open, and only
/// ops that complete inside it are counted.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    start: Instant,
    end: Instant,
}

impl Window {
    pub fn open(seconds: f64) -> Window {
        let start = Instant::now();
        Window {
            start,
            end: start + Duration::from_secs_f64(seconds),
        }
    }

    pub fn is_open(&self) -> bool {
        Instant::now() < self.end
    }

    /// Time until the window closes (zero once closed).
    pub fn remaining(&self) -> Duration {
        self.end.saturating_duration_since(Instant::now())
    }

    pub fn contains(&self, t: Instant) -> bool {
        t >= self.start && t <= self.end
    }

    pub fn start(&self) -> Instant {
        self.start
    }

    pub fn seconds(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }

    /// Seconds from the window's start to `t`.
    pub fn offset(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.start).as_secs_f64()
    }
}

/// Width of the slices [`median_slice_rate`] cuts a window into, s.
pub const SLICE_S: f64 = 0.25;

/// Median over the window's [`SLICE_S`] slices of the tiles completed in
/// each slice. A burst of host steal then moves a few slices, not the
/// result.
pub fn median_slice_rate(completions: &[(f64, u64)], window_s: f64) -> f64 {
    let slices = ((window_s / SLICE_S).round() as usize).max(1);
    let width = window_s / slices as f64;
    let mut tiles = vec![0u64; slices];
    for &(t, n) in completions {
        let i = ((t / width) as usize).min(slices - 1);
        tiles[i] += n;
    }
    let rates: Vec<f64> = tiles.iter().map(|&n| n as f64 / width).collect();
    median(&rates)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let sorted = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(supported_quantile(&sorted(999), 0.99), None);
        assert_eq!(supported_quantile(&sorted(1000), 0.99), Some(990.0));
        assert_eq!(supported_quantile(&sorted(19), 0.5), None);
        assert_eq!(supported_quantile(&sorted(20), 0.5), Some(10.0));
        assert_eq!(supported_quantile(&[], 0.5), None);
    }

    #[test]
    fn median_and_slice_rates() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
        // Four slices of 10, 10, 40 and 10 tiles: the burst does not move
        // the median.
        let w = 4.0 * SLICE_S;
        let c = [0.5, 1.5, 2.2, 2.7, 3.9].map(|t| t * SLICE_S);
        let c = [(c[0], 10), (c[1], 10), (c[2], 20), (c[3], 20), (c[4], 10)];
        assert_eq!(median_slice_rate(&c, w), 10.0 / SLICE_S);
    }
}
