//! Vector norms and residual measures.
//!
//! The AIAC convergence detection of the paper uses the max norm of the
//! difference between two consecutive local iterates
//! (`residual_i^t = ||X_i^t − X_i^{t−1}||_∞`, Section 1.2); [`max_norm_diff`]
//! computes exactly that quantity without materialising the difference vector.

/// `max(a, b)` that returns NaN when either operand is NaN. `f64::max`
/// returns the other operand instead, so a residual fold built on it turns a
/// diverged (NaN) block into a converged-looking one.
#[inline]
pub fn nan_max(a: f64, b: f64) -> f64 {
    if a > b || a.is_nan() {
        a
    } else {
        b
    }
}

/// Largest magnitude among the terms, NaN if any term is NaN, `0.0` if
/// there are none. The bulk arrives as groups of four and folds into four
/// independent [`nan_max`] lanes: a single running max is one serial
/// dependency chain, while the lanes vectorize and keep `f64::max`'s speed.
fn max_magnitude(chunks: impl Iterator<Item = [f64; 4]>, tail: impl Iterator<Item = f64>) -> f64 {
    let mut lanes = [0.0_f64; 4];
    for chunk in chunks {
        for (lane, t) in lanes.iter_mut().zip(chunk) {
            *lane = nan_max(*lane, t.abs());
        }
    }
    tail.chain(lanes).fold(0.0, |m, t| nan_max(m, t.abs()))
}

/// Max norm (infinity norm) `||x||_∞ = max_i |x_i|`.
///
/// Returns `0.0` for the empty vector and NaN if any entry is NaN.
pub fn max_norm(x: &[f64]) -> f64 {
    let chunks = x.chunks_exact(4);
    let tail = chunks.remainder().iter().copied();
    max_magnitude(chunks.map(|c| [c[0], c[1], c[2], c[3]]), tail)
}

/// Euclidean norm `||x||_2`.
pub fn l2_norm(x: &[f64]) -> f64 {
    x.iter().map(|v| v * v).sum::<f64>().sqrt()
}

/// One norm `||x||_1 = Σ_i |x_i|`.
pub fn l1_norm(x: &[f64]) -> f64 {
    x.iter().map(|v| v.abs()).sum()
}

/// Max norm of the difference of two vectors, `||x − y||_∞`, computed without
/// allocating the difference.
///
/// NaN if any difference is NaN — in particular once an iterate has
/// overflowed, since `∞ − ∞` is NaN — so a diverged block never reads as
/// converged.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn max_norm_diff(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "max_norm_diff: length mismatch");
    let (xc, yc) = (x.chunks_exact(4), y.chunks_exact(4));
    let tail = xc
        .remainder()
        .iter()
        .zip(yc.remainder())
        .map(|(a, b)| a - b);
    let chunks = xc
        .zip(yc)
        .map(|(a, b)| [a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3]]);
    max_magnitude(chunks, tail)
}

/// Euclidean norm of the difference of two vectors, `||x − y||_2`.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn l2_norm_diff(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "l2_norm_diff: length mismatch");
    x.iter()
        .zip(y.iter())
        .map(|(a, b)| (a - b) * (a - b))
        .sum::<f64>()
        .sqrt()
}

/// Relative max-norm difference `||x − y||_∞ / max(||y||_∞, floor)`.
///
/// The `floor` guards against division by zero when the reference vector is
/// (numerically) zero; `1e-300` keeps the measure meaningful for tiny but
/// non-zero references.
pub fn relative_max_norm_diff(x: &[f64], y: &[f64], floor: f64) -> f64 {
    max_norm_diff(x, y) / max_norm(y).max(floor)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_norm_picks_largest_magnitude() {
        assert_eq!(max_norm(&[1.0, -7.5, 3.0]), 7.5);
    }

    #[test]
    fn max_norm_of_empty_vector_is_zero() {
        assert_eq!(max_norm(&[]), 0.0);
    }

    #[test]
    fn max_norm_propagates_nan_from_any_position() {
        // Lengths cover the four-wide lanes, the tail and both together.
        for n in 1..=9 {
            for i in 0..n {
                let mut x: Vec<f64> = (0..n).map(|k| k as f64 - 4.5).collect();
                x[i] = f64::NAN;
                assert!(max_norm(&x).is_nan(), "NaN at {i} of {n} was dropped");
                x[i] = -f64::NAN;
                assert!(max_norm(&x).is_nan(), "-NaN at {i} of {n} was dropped");
            }
        }
        assert_eq!(max_norm(&[1.0, f64::NEG_INFINITY]), f64::INFINITY);
    }

    #[test]
    fn max_norm_finds_the_largest_magnitude_in_lanes_and_tail() {
        for n in 1..=9 {
            for i in 0..n {
                let mut x = vec![0.5; n];
                x[i] = -3.0;
                assert_eq!(max_norm(&x), 3.0, "entry {i} of {n}");
                assert_eq!(max_norm_diff(&x, &vec![1.0; n]), 4.0, "entry {i} of {n}");
            }
        }
    }

    #[test]
    fn max_norm_diff_propagates_nan() {
        let x = [1.0, f64::INFINITY, 2.0];
        let y = [0.5, f64::INFINITY, 2.0];
        assert!(max_norm_diff(&x, &y).is_nan(), "inf - inf must stay NaN");
        assert!(max_norm_diff(&[0.0, f64::NAN], &[9.0, 0.0]).is_nan());
        assert!(max_norm_diff(&[f64::NAN, 0.0], &[0.0, 9.0]).is_nan());
        assert_eq!(
            max_norm_diff(&[1.0, f64::INFINITY], &[0.0, 1.0]),
            f64::INFINITY
        );
    }

    #[test]
    fn nan_max_propagates_nan_from_either_side() {
        assert!(nan_max(f64::NAN, 1.0).is_nan());
        assert!(nan_max(1.0, f64::NAN).is_nan());
        assert_eq!(nan_max(1.0, 2.0), 2.0);
        assert_eq!(nan_max(2.0, 1.0), 2.0);
    }

    #[test]
    fn l2_norm_of_345_triangle() {
        assert!((l2_norm(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
    }

    #[test]
    fn l1_norm_sums_magnitudes() {
        assert_eq!(l1_norm(&[1.0, -2.0, 3.0]), 6.0);
    }

    #[test]
    fn max_norm_diff_matches_explicit_subtraction() {
        let x = [1.0, 2.0, 3.0];
        let y = [1.5, 0.0, 3.25];
        assert_eq!(max_norm_diff(&x, &y), 2.0);
    }

    #[test]
    fn l2_norm_diff_matches_explicit_subtraction() {
        let x = [3.0, 0.0];
        let y = [0.0, 4.0];
        assert!((l2_norm_diff(&x, &y) - 5.0).abs() < 1e-15);
    }

    #[test]
    fn relative_diff_uses_reference_scale() {
        let x = [2.0];
        let y = [1.0];
        assert!((relative_max_norm_diff(&x, &y, 1e-300) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn relative_diff_floor_prevents_division_by_zero() {
        let v = relative_max_norm_diff(&[1.0], &[0.0], 1.0);
        assert_eq!(v, 1.0);
    }

    #[test]
    fn norm_ordering_l_inf_le_l2_le_l1() {
        let x = [1.0, -2.0, 0.5, 3.0];
        assert!(max_norm(&x) <= l2_norm(&x) + 1e-15);
        assert!(l2_norm(&x) <= l1_norm(&x) + 1e-15);
    }
}
