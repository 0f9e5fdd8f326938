//! Estimators. Every timing metric the benchmark prints is computed from
//! *position floors*: a pass is a fixed request list, the list is repeated
//! K times, and each position keeps the smallest latency it ever showed.
//! Interference on a shared machine only ever adds time, so the floor is
//! the sample least touched by it; pooled raw samples are never used.

/// Per-position minimum over passes. `passes[k][i]` is the latency of
/// position `i` in pass `k`; all passes have the same length.
pub fn position_floors(passes: &[Vec<f64>]) -> Vec<f64> {
    let Some(first) = passes.first() else {
        return Vec::new();
    };
    let mut floors = first.clone();
    for pass in &passes[1..] {
        assert_eq!(
            pass.len(),
            floors.len(),
            "every pass replays the same request list"
        );
        for (f, &v) in floors.iter_mut().zip(pass) {
            if v < *f {
                *f = v;
            }
        }
    }
    floors
}

/// Nearest-rank percentile (`p` in 0..=100) of `values`; 0 for an empty
/// slice. With fewer than ten values the 90th percentile is the maximum.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median: mean of the two middle values for an even count.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("values are finite"));
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Largest value; 0 for an empty slice.
pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(0.0, f64::max)
}

/// Smallest value; 0 for an empty slice.
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them, so
/// `perf compare` judges a set by the rule the driver applies. Needs at
/// least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("values are finite"));
    let n = sorted.len();
    let at = |i: usize| -> f64 {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floors_ignore_injected_spikes() {
        // Twelve passes of ten positions; position i costs (i+1) ms. Every
        // pass has one 10x spike and pass 3 is disturbed throughout.
        let clean: Vec<f64> = (1..=10).map(|i| i as f64).collect();
        let mut passes = Vec::new();
        for k in 0..12usize {
            let mut p = clean.clone();
            p[k % 10] *= 10.0;
            if k == 3 {
                p.iter_mut().for_each(|v| *v *= 1.6);
            }
            passes.push(p);
        }
        let floors = position_floors(&passes);
        assert_eq!(floors, clean);
        assert_eq!(floors.iter().sum::<f64>(), 55.0);
        // The raw pooled samples the floors replace would have moved.
        let pooled: Vec<f64> = passes.iter().flatten().copied().collect();
        assert!(percentile(&pooled, 90.0) > percentile(&floors, 90.0));
    }

    #[test]
    fn floors_of_a_single_pass_are_that_pass() {
        assert_eq!(position_floors(&[vec![3.0, 1.0]]), vec![3.0, 1.0]);
        assert!(position_floors(&[]).is_empty());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        // Five positions: the 90th percentile is the largest floor.
        assert_eq!(percentile(&[5.0, 1.0, 4.0, 2.0, 3.0], 90.0), 5.0);
        assert_eq!(percentile(&[], 90.0), 0.0);
    }

    #[test]
    fn median_max_min() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(max(&[1.0, 7.0, 3.0]), 7.0);
        assert_eq!(min(&[4.0, 2.0, 9.0]), 2.0);
        assert_eq!(max(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(|i| i as f64).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
    }
}
