//! Order statistics over trial samples.

/// Median, quartiles, extremes and count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

/// The `p`-quantile (0..=1) of `sorted` by linear interpolation between the
/// two closest ranks, so the median of an even count is the mean of the
/// middle pair.
fn quantile(sorted: &[f64], p: f64) -> f64 {
    let rank = p * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Summarise `samples`; `None` when there are none.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Summary {
        n: sorted.len(),
        min: sorted[0],
        q1: quantile(&sorted, 0.25),
        median: quantile(&sorted, 0.5),
        q3: quantile(&sorted, 0.75),
        max: sorted[sorted.len() - 1],
    })
}

/// Median of `samples` (panics on an empty slice: every caller measures at
/// least once).
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).expect("median of no samples").median
}

/// Smallest of `samples` (panics on an empty slice, like [`median`]).
pub fn minimum(samples: &[f64]) -> f64 {
    summarize(samples).expect("minimum of no samples").min
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_interpolate_between_ranks() {
        let s = summarize(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!((s.n, s.min, s.max), (4, 1.0, 4.0));
        assert_eq!(s.median, 2.5);
        assert_eq!(s.q1, 1.75);
        assert_eq!(s.q3, 3.25);

        let odd = summarize(&[9.0, 7.0, 8.0, 5.0, 6.0]).unwrap();
        assert_eq!((odd.q1, odd.median, odd.q3), (6.0, 7.0, 8.0));

        let one = summarize(&[3.5]).unwrap();
        assert_eq!(
            (one.min, one.q1, one.median, one.q3, one.max),
            (3.5, 3.5, 3.5, 3.5, 3.5)
        );
        assert!(summarize(&[]).is_none());
    }
}
