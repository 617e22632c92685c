//! Order statistics for latency samples.

/// Nearest-rank `q`-quantile of `values` (`q` in `[0, 1]`); `None` when
/// empty. Sorts a copy.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// The median, or `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// The `q`-quantile only when at least ten samples lie beyond it, so a
/// tail percentile is never read off a handful of points.
pub fn tail_quantile(values: &[f64], q: f64) -> Option<f64> {
    let beyond = values.len() as f64 * (1.0 - q);
    if beyond + 1e-9 < 10.0 {
        return None;
    }
    quantile(values, q)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(median(&v), Some(50.0));
        assert_eq!(quantile(&v, 0.95), Some(95.0));
        assert_eq!(quantile(&v, 1.0), Some(100.0));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_needs_ten_beyond() {
        let v: Vec<f64> = (0..199).map(f64::from).collect();
        assert_eq!(tail_quantile(&v, 0.95), None);
        let v: Vec<f64> = (0..200).map(f64::from).collect();
        assert_eq!(tail_quantile(&v, 0.95), Some(189.0));
        assert_eq!(tail_quantile(&v, 0.99), None);
    }
}
