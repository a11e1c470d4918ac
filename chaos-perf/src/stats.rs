//! Order statistics over a run's repetitions.

/// Smallest value: the runs are deterministic single-threaded
/// computations, so interference from the host only ever adds time.
pub fn best(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    let n = s.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First, second and third quartile as Python's
/// `statistics.quantiles(v, n=4)` gives them (the exclusive method), so
/// spreads computed here and by the driver agree.
pub fn quartiles(v: &[f64]) -> [f64; 3] {
    let s = sorted(v);
    let n = s.len();
    assert!(n >= 2, "quartiles need two values");
    let m = n + 1;
    [1usize, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    })
}

/// Inter-quartile distance as a percentage of the median; 0 for fewer
/// than two values.
pub fn iqr_pct(v: &[f64]) -> f64 {
    if v.len() < 2 {
        return 0.0;
    }
    let [q1, q2, q3] = quartiles(v);
    100.0 * (q3 - q1) / q2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_and_median_on_known_vectors() {
        assert_eq!(best(&[3.0, 1.5, 2.0]), 1.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 2, 8, 4], n=4) -> [2.5, 6.0, 9.5]
        assert_eq!(quartiles(&[10.0, 2.0, 8.0, 4.0]), [2.5, 6.0, 9.5]);
        // statistics.quantiles([1, 2], n=4) -> [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert!((iqr_pct(&v) - 100.0).abs() < 1e-12);
        assert_eq!(iqr_pct(&[5.0]), 0.0);
    }
}
