//! Percentile math: whole-sample percentiles, and the median over equal
//! windows that keeps a tail figure steady on a shared host.

/// Nearest-rank percentile (`p` in `0..=1`) of an unsorted sample; `None`
/// when empty.
pub fn percentile(values: &[u64], p: f64) -> Option<u64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_unstable();
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    Some(v[rank - 1])
}

/// Median of an unsorted f64 sample (mean of the middle two when even);
/// `None` when empty.
pub fn median_f64(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Median of an unsorted u64 sample as f64; `None` when empty.
pub fn median_u64(values: &[u64]) -> Option<f64> {
    let v: Vec<f64> = values.iter().map(|&x| x as f64).collect();
    median_f64(&v)
}

/// How a windowed percentile was obtained.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Windowed {
    /// The reported value.
    pub value: f64,
    /// Samples the value rests on.
    pub samples: usize,
    /// `true` when some window held fewer than `min_per_window` samples
    /// and the value is the whole-phase percentile instead.
    pub fallback: bool,
}

/// The `p`-th percentile as the **median over windows** of each window's
/// own percentile: what the system does in most windows — a slower
/// kernel, a stall per compaction cycle when every window holds a cycle —
/// moves it, one hiccup of the host in one window does not. Falls back to
/// the percentile of all samples pooled when a window holds fewer than
/// `min_per_window` samples (a p99 needs 1000: ten samples beyond it).
pub fn median_of_windows(windows: &[Vec<u64>], p: f64, min_per_window: usize) -> Option<Windowed> {
    let samples: usize = windows.iter().map(Vec::len).sum();
    if samples == 0 {
        return None;
    }
    if windows.iter().any(|w| w.len() < min_per_window.max(1)) {
        let all: Vec<u64> = windows.iter().flatten().copied().collect();
        return Some(Windowed {
            value: percentile(&all, p)? as f64,
            samples,
            fallback: true,
        });
    }
    let per: Vec<f64> = windows
        .iter()
        .map(|w| percentile(w, p).expect("window is non-empty") as f64)
        .collect();
    Some(Windowed {
        value: median_f64(&per)?,
        samples,
        fallback: false,
    })
}

/// Mean of the `keep` largest values; `None` when there are fewer. For a
/// share that is better when higher: what the system does in its better
/// windows. A freeze of the host spoils the windows it lands in and no
/// others, so it leaves this alone until it has spoilt all but `keep - 1`;
/// what the system does in every window moves it one for one.
pub fn mean_of_best(values: &[f64], keep: usize) -> Option<f64> {
    if keep == 0 || values.len() < keep {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| b.total_cmp(a));
    Some(v[..keep].iter().sum::<f64>() / keep as f64)
}

/// Distance between the first and third quartile as a share of the
/// median — the spread the driver checks against each metric's bound.
/// Quartiles follow Python's `statistics.quantiles(v, n=4)` (exclusive
/// method). `None` for fewer than two values.
pub fn iqr_over_median(values: &[f64]) -> Option<f64> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let quantile = |k: usize| {
        // position k*(n+1)/4, 1-based, clamped to the sample
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - lo as f64;
        v[lo - 1] + (v[lo] - v[lo - 1]) * frac
    };
    let med = median_f64(&v)?;
    (med != 0.0).then(|| (quantile(3) - quantile(1)) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), Some(50));
        assert_eq!(percentile(&v, 0.99), Some(99));
        assert_eq!(percentile(&v, 1.0), Some(100));
        assert_eq!(percentile(&[7], 0.99), Some(7));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median_f64(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median_u64(&[9, 1, 5]), Some(5.0));
    }

    #[test]
    fn window_median_sees_what_most_windows_show_and_not_one_hiccup() {
        // 5 windows x 1000 samples of value 100; one window stalls at 10_000.
        let mut windows: Vec<Vec<u64>> = (0..5).map(|_| vec![100; 1000]).collect();
        windows[3] = vec![10_000; 1000];
        let w = median_of_windows(&windows, 0.99, 1000).unwrap();
        assert!(!w.fallback);
        assert_eq!((w.value, w.samples), (100.0, 5000));
        // A stall in every window (2 % of each) is the reported p99.
        for w in &mut windows {
            *w = vec![100; 1000];
            w[..20].fill(7_000);
        }
        assert_eq!(
            median_of_windows(&windows, 0.99, 1000).unwrap().value,
            7_000.0
        );
        assert_eq!(median_of_windows(&windows, 0.5, 1000).unwrap().value, 100.0);
        // An even number of windows: the mean of the middle two.
        let even: Vec<Vec<u64>> = [10, 40, 20, 30].iter().map(|&v| vec![v]).collect();
        assert_eq!(median_of_windows(&even, 0.5, 1).unwrap().value, 25.0);
    }

    #[test]
    fn window_median_falls_back_to_the_pooled_percentile_when_a_window_is_thin() {
        // 4 full windows and one of 999 samples: the whole phase speaks,
        // and the one stalled window's tail is in it.
        let mut windows: Vec<Vec<u64>> = (0..4).map(|_| vec![100; 1000]).collect();
        windows.push(vec![10_000; 999]);
        let w = median_of_windows(&windows, 0.99, 1000).unwrap();
        assert!(w.fallback);
        assert_eq!((w.value, w.samples), (10_000.0, 4999));
        assert!(median_of_windows(&[], 0.5, 1).is_none());
        assert!(median_of_windows(&[Vec::new(), Vec::new()], 0.5, 0).is_none());
        // Empty windows cannot vote, whatever the minimum.
        let w = median_of_windows(&[vec![3], Vec::new()], 0.5, 0).unwrap();
        assert!(w.fallback);
        assert_eq!(w.value, 3.0);
    }

    #[test]
    fn mean_of_best_ignores_the_spoilt_windows_and_follows_what_every_window_shows() {
        // Two of five windows frozen: the other three speak.
        let v = [0.99, 0.41, 0.98, 0.72, 1.0];
        assert!((mean_of_best(&v, 3).unwrap() - 0.99).abs() < 1e-12);
        // A third spoilt window is in the figure.
        let v = [0.99, 0.41, 0.50, 0.72, 1.0];
        assert!((mean_of_best(&v, 3).unwrap() - (1.0 + 0.99 + 0.72) / 3.0).abs() < 1e-12);
        // A loss in every window moves it one for one.
        assert!((mean_of_best(&[0.8; 5], 3).unwrap() - 0.8).abs() < 1e-12);
        assert_eq!(mean_of_best(&[0.5, 0.7], 3), None);
        assert_eq!(mean_of_best(&[0.5], 0), None);
    }

    #[test]
    fn iqr_matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = iqr_over_median(&v).unwrap();
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12, "{s}");
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let s = iqr_over_median(&[10.0, 20.0]).unwrap();
        assert!((s - 1.0).abs() < 1e-12, "{s}");
        assert!(iqr_over_median(&[1.0]).is_none());
    }
}
