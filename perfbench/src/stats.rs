//! Order statistics for timing samples.
//!
//! A timing is reported as its median plus the highest percentile that
//! still has at least [`MIN_BEYOND`] samples beyond it, with the sample
//! count, so a tail figure is never read off a handful of outliers.

/// Samples a reported tail percentile must have strictly above it.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles tried, highest first.
const TAILS: [f64; 4] = [0.99, 0.95, 0.90, 0.75];

/// Median and supported tail of one sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// Highest percentile in [`TAILS`] with ≥ [`MIN_BEYOND`] samples
    /// beyond it (0.5 when even p75 is not supported).
    pub tail_q: f64,
    /// Value at `tail_q`.
    pub tail: f64,
    /// The 95th percentile (whether or not it is supported).
    pub p95: f64,
}

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Samples strictly above the `q` quantile's rank.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let idx = ((n - 1) as f64 * q).round() as usize;
    n - 1 - idx.min(n - 1)
}

/// The highest tail percentile an `n`-sample set supports.
pub fn supported_tail(n: usize) -> f64 {
    TAILS
        .iter()
        .copied()
        .find(|&q| beyond(n, q) >= MIN_BEYOND)
        .unwrap_or(0.5)
}

/// Summarizes `samples` (sorted in place). `None` when empty.
pub fn summarize(samples: &mut [f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    let tail_q = supported_tail(samples.len());
    Some(Summary {
        n: samples.len(),
        p50: quantile(samples, 0.5),
        tail_q,
        tail: quantile(samples, tail_q),
        p95: quantile(samples, 0.95),
    })
}

/// Summarizes `samples` chunk by chunk and reports the median of the
/// chunks' medians and of their tails, so one stall of the shared host
/// moves one chunk's figures, not the run's. Chunks hold `chunk` samples
/// in arrival order (a short tail joins the last chunk); fewer than one
/// chunk is summarized whole. `n` counts every sample.
pub fn chunked(samples: &[f64], chunk: usize) -> Option<Summary> {
    let n_chunks = samples.len() / chunk.max(1);
    if n_chunks <= 1 {
        return summarize(&mut samples.to_vec());
    }
    let mut p50s = Vec::with_capacity(n_chunks);
    let mut p95s = Vec::with_capacity(n_chunks);
    let mut tails = Vec::with_capacity(n_chunks);
    let mut tail_q = 1.0f64;
    for k in 0..n_chunks {
        let end = if k + 1 == n_chunks {
            samples.len()
        } else {
            (k + 1) * chunk
        };
        let s = summarize(&mut samples[k * chunk..end].to_vec()).expect("non-empty chunk");
        p50s.push(s.p50);
        p95s.push(s.p95);
        tails.push(s.tail);
        tail_q = tail_q.min(s.tail_q);
    }
    Some(Summary {
        n: samples.len(),
        p50: median(&mut p50s),
        tail_q,
        tail: median(&mut tails),
        p95: median(&mut p95s),
    })
}

/// Median of a sample (sorted in place). `NaN` when empty.
pub fn median(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.sort_by(f64::total_cmp);
    quantile(samples, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1000 samples: p99 has 10 beyond it.
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(supported_tail(1000), 0.99);
        // 950 samples: p99 would leave fewer than 10 beyond, p95 holds.
        assert!(beyond(950, 0.99) < MIN_BEYOND);
        assert_eq!(supported_tail(950), 0.95);
        assert_eq!(supported_tail(201), 0.95);
        assert_eq!(supported_tail(101), 0.90);
        assert_eq!(supported_tail(41), 0.75);
        assert_eq!(supported_tail(12), 0.5);
    }

    #[test]
    fn summary_reports_n_and_the_supported_tail() {
        let mut v: Vec<f64> = (1..=2000).rev().map(f64::from).collect();
        let s = summarize(&mut v).expect("non-empty");
        assert_eq!(s.n, 2000);
        assert_eq!(s.tail_q, 0.99);
        assert_eq!(s.p50, 1001.0);
        assert_eq!(s.tail, 1980.0);
        assert!(v.len() - v.iter().filter(|&&x| x <= s.tail).count() >= MIN_BEYOND);

        let mut few: Vec<f64> = (0..50).map(f64::from).collect();
        let s = summarize(&mut few).expect("non-empty");
        assert_eq!((s.n, s.tail_q), (50, 0.75));
        assert!(summarize(&mut []).is_none());
    }

    #[test]
    fn chunked_summary_shrugs_off_one_stalled_chunk() {
        let mut v: Vec<f64> = (0..5000).map(|i| f64::from(i % 1000)).collect();
        // A stall inflates every sample of the third chunk.
        for x in &mut v[2000..3000] {
            *x += 1e6;
        }
        let s = chunked(&v, 1000).expect("non-empty");
        assert_eq!((s.n, s.tail_q), (5000, 0.99));
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.tail, 989.0);
        // Under one chunk: summarized whole.
        let whole = chunked(&v[..500], 1000).expect("non-empty");
        assert_eq!(whole.n, 500);
        assert!(chunked(&[], 10).is_none());
    }
}
