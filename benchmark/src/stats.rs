//! Order statistics for latency samples, and the rule that decides
//! which tail percentile a sample can support.

/// The `p`-th percentile (0..=100) of an ascending-sorted slice, by the
/// nearest-rank method.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    let n = s.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The interquartile mean of an ascending-sorted slice: the mean of the
/// middle half of the sample.
///
/// Every workload here is a mixture (change kinds, query kinds) whose
/// latencies form a few tight clusters. The median of such a sample sits
/// in whichever cluster holds the middle rank, and jumps to the next
/// cluster when the seed shifts the mixture's weights by a few percent
/// (`watch-ft6` notify latency read 3.3 or 5.1 ms by seed). The
/// interquartile mean moves in proportion to the weights instead, and
/// like the median it ignores both tails.
pub fn interquartile_mean(sorted: &[f64]) -> f64 {
    assert!(!sorted.is_empty(), "interquartile mean of an empty sample");
    let n = sorted.len();
    let middle = &sorted[n / 4..(n - n / 4).max(n / 4 + 1)];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// A percentile is reported only when at least ten samples lie beyond it.
pub fn supported(p: f64, n: usize) -> bool {
    n as f64 * (100.0 - p) / 100.0 >= 10.0
}

/// Centre and one tail percentile of a latency sample, with the count
/// and whether the count supports that tail.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub iqm: f64,
    pub p50: f64,
    pub tail: f64,
    pub tail_supported: bool,
}

pub fn summarize(samples: Vec<f64>, tail_p: f64) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let s = sorted(samples);
    Some(Summary {
        n: s.len(),
        iqm: interquartile_mean(&s),
        p50: percentile(&s, 50.0),
        tail: percentile(&s, tail_p),
        tail_supported: supported(tail_p, s.len()),
    })
}

/// Relative distance between two measurements of one metric.
pub fn rel_spread(a: f64, b: f64) -> f64 {
    let mid = (a + b) / 2.0;
    if mid == 0.0 {
        0.0
    } else {
        (a - b).abs() / mid.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_tail_needs_ten_samples_beyond_it() {
        assert!(!supported(95.0, 199));
        assert!(supported(95.0, 200));
        assert!(!supported(99.0, 999));
        assert!(supported(99.0, 1000));
        assert!(supported(50.0, 20));
        assert!(!supported(50.0, 19));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 95.0), 95.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let s: Vec<f64> = (1..=8).map(f64::from).collect();
        assert_eq!(interquartile_mean(&s), 4.5);
        assert_eq!(interquartile_mean(&[1.0, 2.0, 3.0, 90.0]), 2.5);
        assert_eq!(interquartile_mean(&[7.0]), 7.0);
        // Two clusters: the median is in one of them, the IQM between.
        let mixture = sorted([vec![3.0; 49], vec![5.0; 51]].concat());
        assert_eq!(percentile(&mixture, 50.0), 5.0);
        assert!((interquartile_mean(&mixture) - 4.04).abs() < 1e-9);
        let sum = summarize(vec![5.0; 150], 95.0).unwrap();
        assert!(!sum.tail_supported);
        assert!(summarize(vec![], 95.0).is_none());
    }
}
