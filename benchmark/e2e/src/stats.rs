//! Order statistics used for every reported timing.

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Percentile `p` in 0..=100 with linear interpolation between ranks.
/// Empty input gives 0.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The median over consecutive windows of `window` seconds of each window's
/// p95: a tail estimate that one stall moves in one window only. `samples`
/// are (time the request was due, latency). A window needs at least 20
/// samples per tail sample, i.e. `min_samples`, to count; the number of
/// windows used is returned with the estimate.
pub fn windowed_p95(samples: &[(f64, f64)], window: f64, min_samples: usize) -> (f64, usize) {
    let Some(start) = samples.iter().map(|s| s.0).min_by(f64::total_cmp) else {
        return (0.0, 0);
    };
    let mut windows: Vec<Vec<f64>> = Vec::new();
    for &(due, latency) in samples {
        let w = ((due - start) / window) as usize;
        if windows.len() <= w {
            windows.resize(w + 1, Vec::new());
        }
        windows[w].push(latency);
    }
    let tails: Vec<f64> = windows
        .iter()
        .filter(|w| w.len() >= min_samples)
        .map(|w| percentile(w, 95.0))
        .collect();
    if tails.is_empty() {
        // Too few samples for any window: fall back to the plain p95.
        let all: Vec<f64> = samples.iter().map(|s| s.1).collect();
        return (percentile(&all, 95.0), 0);
    }
    (median(&tails), tails.len())
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method). Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    assert!(n >= 2, "quartiles need two values");
    let at = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!((percentile(&v, 95.0) - 3.85).abs() < 1e-12);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
    }

    #[test]
    fn windowed_p95_ignores_a_stall_confined_to_one_window() {
        // Three 2-s windows of 100 samples at 1 ms; the middle one stalls.
        let mut samples = Vec::new();
        for w in 0..3 {
            for i in 0..100 {
                let due = w as f64 * 2.0 + i as f64 * 0.02;
                let latency = if w == 1 && i >= 50 { 500.0 } else { 1.0 };
                samples.push((due, latency));
            }
        }
        let (p95, windows) = windowed_p95(&samples, 2.0, 20);
        assert_eq!((p95, windows), (1.0, 3));
        let all: Vec<f64> = samples.iter().map(|s| s.1).collect();
        assert_eq!(percentile(&all, 95.0), 500.0);
    }

    #[test]
    fn windowed_p95_drops_thin_windows_and_falls_back_without_any() {
        let samples: Vec<(f64, f64)> = (0..30).map(|i| (i as f64 * 0.1, i as f64)).collect();
        // 3 s of data in 2-s windows: 20 + 10 samples; only the first counts.
        let (p95, windows) = windowed_p95(&samples, 2.0, 20);
        assert_eq!(windows, 1);
        assert!((p95 - 18.05).abs() < 1e-9);
        let (fallback, none) = windowed_p95(&samples, 2.0, 100);
        assert_eq!(none, 0);
        assert!((fallback - 27.55).abs() < 1e-9);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1], n=4) == [0.5, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), (0.5, 3.5));
    }
}
