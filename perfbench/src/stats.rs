//! Order statistics over one request class.

/// The fewest samples a reported tail must have beyond it.
pub const TAIL_SAMPLES: usize = 10;

/// The median (mean of the middle two for an even count).
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// The nearest-rank `q`-quantile of `samples`, reported only when at least
/// [`TAIL_SAMPLES`] samples lie strictly beyond its rank.
pub fn tail(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 || !(0.0..1.0).contains(&q) {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
    if n - 1 - rank < TAIL_SAMPLES {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tails_need_ten_samples_beyond_them() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples is the 90th value, with exactly 10 beyond it.
        assert_eq!(tail(&samples, 0.9), Some(90.0));
        assert_eq!(tail(&samples[..99], 0.9), None);
        // p99 would need a thousand samples.
        assert_eq!(tail(&samples, 0.99), None);
        let many: Vec<f64> = (1..=1100).map(f64::from).collect();
        assert_eq!(tail(&many, 0.99), Some(1089.0));
        assert_eq!(tail(&[], 0.5), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
