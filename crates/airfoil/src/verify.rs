//! Verification helpers for comparing runs across backends.

/// Maximum relative difference between two equally-long sequences
/// (denominator floored at 1e-12 to tolerate zeros).
pub fn max_rel_diff(a: &[f64], b: &[f64]) -> f64 {
    max_scaled_diff(a, b, 1e-12)
}

/// Maximum difference scaled by `max(|x|, |y|, scale)`. Use `scale` around
/// the natural magnitude of the data (e.g. 1.0 for the O(1) conserved
/// variables) so components that happen to be ≈ 0 — like `ρv` in the
/// free stream — do not turn rounding noise into huge relative errors.
pub fn max_scaled_diff(a: &[f64], b: &[f64], scale: f64) -> f64 {
    assert_eq!(a.len(), b.len(), "sequence length mismatch");
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs() / x.abs().max(y.abs()).max(scale))
        .fold(0.0, f64::max)
}

/// True when every value is finite.
pub fn all_finite(values: &[f64]) -> bool {
    values.iter().all(|v| v.is_finite())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rel_diff_of_identical_is_zero() {
        let a = [1.0, 2.0, 3.0];
        assert_eq!(max_rel_diff(&a, &a), 0.0);
    }

    #[test]
    fn rel_diff_detects_divergence() {
        let a = [1.0, 2.0];
        let b = [1.0, 2.2];
        let d = max_rel_diff(&a, &b);
        assert!((d - 0.2 / 2.2).abs() < 1e-12);
    }

    #[test]
    fn finite_check() {
        assert!(all_finite(&[0.0, 1.0]));
        assert!(!all_finite(&[0.0, f64::NAN]));
        assert!(!all_finite(&[f64::INFINITY]));
    }
}
