//! Small dense linear-algebra helpers used by the learners.

/// Dot product.
///
/// # Panics
///
/// Panics if lengths differ (debug builds assert; release relies on zip
/// semantics, so mismatches silently truncate — hence the debug assert).
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dot length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// `y ← y + alpha · x`.
fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len(), "axpy length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Scales a vector in place.
pub fn scale(alpha: f64, x: &mut [f64]) {
    for xi in x {
        *xi *= alpha;
    }
}

/// Euclidean norm.
pub fn norm(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// Numerically stable logistic sigmoid.
pub fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

/// Weighted average of parameter vectors: `Σ wᵢ·xᵢ / Σ wᵢ`.
///
/// The FedAvg aggregation step.
///
/// # Panics
///
/// Panics if the vectors differ in length or `weights` is empty or sums
/// to zero.
pub fn weighted_average(vectors: &[Vec<f64>], weights: &[f64]) -> Vec<f64> {
    assert_eq!(vectors.len(), weights.len(), "one weight per vector");
    assert!(!vectors.is_empty(), "cannot average nothing");
    let total: f64 = weights.iter().sum();
    assert!(total > 0.0, "weights must sum to a positive value");
    let dim = vectors[0].len();
    let mut out = vec![0.0; dim];
    for (vector, weight) in vectors.iter().zip(weights) {
        assert_eq!(vector.len(), dim, "parameter dimension mismatch");
        axpy(weight / total, vector, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norm() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert!((norm(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 9.0]);
    }

    #[test]
    fn sigmoid_is_stable_at_extremes() {
        assert!(sigmoid(1000.0) <= 1.0);
        assert!(sigmoid(-1000.0) >= 0.0);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!(sigmoid(-745.0).is_finite());
    }

    #[test]
    fn weighted_average_weights_matter() {
        let avg = weighted_average(&[vec![0.0, 0.0], vec![10.0, 20.0]], &[3.0, 1.0]);
        assert!((avg[0] - 2.5).abs() < 1e-12);
        assert!((avg[1] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_average_of_identical_is_identity() {
        let avg = weighted_average(&[vec![1.5, -2.0], vec![1.5, -2.0]], &[5.0, 7.0]);
        assert!((avg[0] - 1.5).abs() < 1e-12);
        assert!((avg[1] + 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "one weight per vector")]
    fn weighted_average_checks_lengths() {
        weighted_average(&[vec![1.0]], &[1.0, 2.0]);
    }
}
