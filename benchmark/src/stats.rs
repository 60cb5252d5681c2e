//! Order statistics for latency samples and for medians over rounds.

/// The fewest samples a p90 may be read from: with fewer than 100, fewer
/// than ten samples lie beyond it and the value is mostly one outlier.
pub const MIN_SAMPLES_FOR_P90: usize = 100;

/// The `q`-quantile (nearest rank, `0 < q <= 1`) of `sorted`, which must
/// be ascending and non-empty.
fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn sorted_copy(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median by the usual rule (mean of the two middle values when the
/// count is even). `None` on an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let v = sorted_copy(values);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Median and p90 of one round's op latencies.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Latency {
    pub p50: f64,
    /// `None` when fewer than [`MIN_SAMPLES_FOR_P90`] samples were taken.
    pub p90: Option<f64>,
    pub samples: usize,
    /// Samples strictly above the p90 rank.
    pub beyond_p90: usize,
}

/// Pick p50 and p90 from `samples`; `None` when there are none.
pub fn latency(samples: &[f64]) -> Option<Latency> {
    if samples.is_empty() {
        return None;
    }
    let v = sorted_copy(samples);
    let n = v.len();
    let p90_rank = (0.9 * n as f64).ceil() as usize;
    Some(Latency {
        p50: nearest_rank(&v, 0.5),
        p90: (n >= MIN_SAMPLES_FOR_P90).then(|| nearest_rank(&v, 0.9)),
        samples: n,
        beyond_p90: n - p90_rank,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let l = latency(&samples).unwrap();
        assert_eq!(l.p50, 50.0);
        assert_eq!(l.p90, Some(90.0));
        assert_eq!(l.samples, 100);
        assert_eq!(l.beyond_p90, 10);
    }

    #[test]
    fn p90_is_refused_below_100_samples() {
        let samples: Vec<f64> = (1..=99).map(f64::from).collect();
        let l = latency(&samples).unwrap();
        assert_eq!(l.p50, 50.0);
        assert_eq!(l.p90, None, "fewer than ten samples lie beyond it");
        assert!(latency(&[]).is_none());
    }
}
