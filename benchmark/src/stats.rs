//! Order statistics and process measurements.

/// How many samples must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0 < p < 100) of ascending `sorted`, or
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond it: a tail
/// percentile resting on a handful of samples is noise.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    if sorted.len() < rank + MIN_BEYOND {
        return None;
    }
    nearest_rank(sorted, p)
}

/// Nearest-rank percentile of ascending `sorted`, however few samples
/// lie beyond it; `None` for an empty sample.
pub fn nearest_rank(sorted: &[u64], p: f64) -> Option<u64> {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted.get(rank.checked_sub(1)?).copied()
}

/// The highest percentile of the usual ladder that `n` samples support.
pub fn highest_supported(n: usize) -> Option<f64> {
    [99.99, 99.9, 99.5, 99.0, 95.0, 90.0, 50.0]
        .into_iter()
        .find(|p| (p / 100.0 * n as f64).ceil() as usize + MIN_BEYOND <= n && n > 0)
}

/// Median of unsorted values (mean of the middle two when even); 0 for
/// an empty sample, which is how an absent span is reported.
pub fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `(steal, total)` CPU time of the whole machine so far, in jiffies,
/// from the first line of `/proc/stat`. Steal is time a virtual CPU was
/// ready to run and the hypervisor ran something else. `(0, 0)` where
/// the file cannot be read.
pub fn cpu_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 50.0), Some(500));
        assert_eq!(percentile(&v, 99.0), Some(990), "exactly 10 beyond");
        assert_eq!(percentile(&v, 99.1), None, "9 beyond");
        assert_eq!(percentile(&v[..999], 99.0), None, "p99 of 999 has 9 beyond");
        assert_eq!(percentile(&v[..19], 50.0), None);
        assert_eq!(percentile(&v[..20], 50.0), Some(10));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(nearest_rank(&v[..19], 50.0), Some(10));
        assert_eq!(nearest_rank(&[], 50.0), None);
    }

    #[test]
    fn highest_supported_percentile_follows_the_sample_count() {
        assert_eq!(highest_supported(0), None);
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(50.0));
        assert_eq!(highest_supported(600), Some(95.0));
        assert_eq!(highest_supported(1_000), Some(99.0));
        assert_eq!(highest_supported(100_000), Some(99.99));
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(vec![]), 0.0);
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
