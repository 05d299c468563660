//! Small statistics utilities: aggregate math used by the experiment
//! harness.

/// Geometric mean of a slice. Returns `NaN` on empty input; non-positive
/// entries are clamped to a tiny epsilon so a single zero does not collapse
/// the whole aggregate (matches common practice in architecture papers).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let s: f64 = xs.iter().map(|&x| x.max(1e-12).ln()).sum();
    (s / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert!((geomean(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
    }

    #[test]
    fn geomean_survives_zero() {
        let g = geomean(&[0.0, 4.0]);
        assert!(g.is_finite());
        assert!(g < 4.0);
    }
}
