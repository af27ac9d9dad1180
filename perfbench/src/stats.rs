//! Order statistics in the same convention as Python's
//! `statistics.quantiles(values, n=4)` (the "exclusive" method).

/// The median; `NaN` for an empty sample.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Linear-interpolated percentile on `(n + 1) * p` ranks, clamped to
/// the sample range.
#[must_use]
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (v.len() as f64 + 1.0) * p / 100.0;
    if rank <= 1.0 {
        return v[0];
    }
    if rank >= v.len() as f64 {
        return v[v.len() - 1];
    }
    let lo = rank.floor() as usize;
    let frac = rank - rank.floor();
    v[lo - 1] + (v[lo] - v[lo - 1]) * frac
}

/// Interquartile range as a share of the median.
#[must_use]
pub fn rel_iqr(values: &[f64]) -> f64 {
    (percentile(values, 75.0) - percentile(values, 25.0)) / median(values)
}

/// Geometric mean of positive values.
#[must_use]
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((percentile(&v, 25.0) - 2.75).abs() < 1e-12);
        assert!((median(&v) - 5.5).abs() < 1e-12);
        assert!((percentile(&v, 75.0) - 8.25).abs() < 1e-12);
    }
}
