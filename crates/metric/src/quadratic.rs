//! Quadratic-form distance for histogram data.
//!
//! `dist_A(a, b) = sqrt((a-b)ᵀ A (a-b))` with a symmetric positive
//! semi-definite similarity matrix `A`. This is the distance family used for
//! color-histogram image retrieval (paper §2, citing Seidl/Kriegel VLDB'97).
//! For positive definite `A` it is a true metric; for merely semi-definite
//! `A` it is a pseudo-metric (symmetry and triangle inequality still hold,
//! which is all the query engine requires).

use crate::distance::Metric;
use crate::object::Vector;

/// A quadratic-form distance with similarity matrix `A` (row-major, `d × d`).
#[derive(Clone, Debug)]
pub struct QuadraticForm {
    dim: usize,
    matrix: Box<[f64]>,
}

impl QuadraticForm {
    /// Creates a quadratic-form distance from a row-major `dim × dim` matrix.
    ///
    /// # Panics
    /// Panics if the matrix is not `dim × dim`, not symmetric, or has
    /// negative diagonal entries (a cheap necessary condition for positive
    /// semi-definiteness; full PSD checking is the caller's responsibility).
    pub fn new(dim: usize, matrix: impl Into<Box<[f64]>>) -> Self {
        let matrix = matrix.into();
        assert_eq!(matrix.len(), dim * dim, "matrix must be dim x dim");
        for i in 0..dim {
            assert!(
                matrix[i * dim + i] >= 0.0,
                "diagonal entries must be non-negative"
            );
            for j in 0..i {
                assert!(
                    (matrix[i * dim + j] - matrix[j * dim + i]).abs() < 1e-9,
                    "similarity matrix must be symmetric"
                );
            }
        }
        Self { dim, matrix }
    }

    /// The identity matrix: reduces the quadratic form to plain Euclidean.
    pub fn identity(dim: usize) -> Self {
        let mut m = vec![0.0; dim * dim];
        for i in 0..dim {
            m[i * dim + i] = 1.0;
        }
        Self::new(dim, m)
    }

    /// A standard color-histogram similarity matrix:
    /// `A[i][j] = exp(-sigma * |i - j| / d)`, modelling that *nearby* bins
    /// (similar colors) partially match. Positive definite for `sigma > 0`.
    pub fn histogram_similarity(dim: usize, sigma: f64) -> Self {
        assert!(sigma > 0.0, "sigma must be positive");
        let mut m = vec![0.0; dim * dim];
        for i in 0..dim {
            for j in 0..dim {
                let delta = (i as f64 - j as f64).abs() / dim as f64;
                m[i * dim + j] = (-sigma * delta).exp();
            }
        }
        Self::new(dim, m)
    }

    /// Dimensionality this distance applies to.
    pub fn dim(&self) -> usize {
        self.dim
    }
}

impl Metric<Vector> for QuadraticForm {
    fn distance(&self, a: &Vector, b: &Vector) -> f64 {
        assert_eq!(a.dim(), self.dim, "vector/matrix dimensionality mismatch");
        assert_eq!(b.dim(), self.dim, "vector/matrix dimensionality mismatch");
        let (xs, ys) = (a.components(), b.components());
        // (a-b)^T A (a-b), exploiting symmetry of A.
        let mut diff = vec![0.0f64; self.dim];
        for i in 0..self.dim {
            diff[i] = xs[i] as f64 - ys[i] as f64;
        }
        let mut acc = 0.0f64;
        for i in 0..self.dim {
            let row = &self.matrix[i * self.dim..(i + 1) * self.dim];
            let mut dot = 0.0f64;
            for j in 0..self.dim {
                dot += row[j] * diff[j];
            }
            acc += diff[i] * dot;
        }
        // Guard against tiny negative values from floating-point noise.
        acc.max(0.0).sqrt()
    }

    fn name(&self) -> &str {
        "quadratic-form"
    }

    /// Quadratic in the dimension: `(a-b)ᵀ A (a-b)` takes `d²`
    /// multiply-adds. On the host of [`crate::cost`] a distance took
    /// `36 ns + 0.386 ns · d²` (d = 4…64), i.e. `22.5 + 0.24 · d²` visits of
    /// 1.6 ns. The matrix fixes `d`, so the payload is not consulted.
    fn distance_price(&self, _payload_bytes: usize) -> f64 {
        let d = self.dim as f64;
        22.5 + 0.24 * d * d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::euclidean::Euclidean;

    fn v(cs: &[f32]) -> Vector {
        Vector::new(cs.to_vec())
    }

    #[test]
    fn identity_matrix_is_euclidean() {
        let q = QuadraticForm::identity(3);
        let a = v(&[1.0, 2.0, 3.0]);
        let b = v(&[0.0, -1.0, 5.0]);
        assert!((q.distance(&a, &b) - Euclidean.distance(&a, &b)).abs() < 1e-9);
    }

    #[test]
    fn histogram_matrix_softens_neighbor_bins() {
        let q = QuadraticForm::histogram_similarity(4, 4.0);
        // Mass shifted to an adjacent bin...
        let near = q.distance(&v(&[1.0, 0.0, 0.0, 0.0]), &v(&[0.0, 1.0, 0.0, 0.0]));
        // ...must be considered more similar than mass shifted far away.
        let far = q.distance(&v(&[1.0, 0.0, 0.0, 0.0]), &v(&[0.0, 0.0, 0.0, 1.0]));
        assert!(
            near < far,
            "adjacent-bin shift should be smaller: {near} vs {far}"
        );
        // Plain Euclidean cannot see the difference.
        let e_near = Euclidean.distance(&v(&[1.0, 0.0, 0.0, 0.0]), &v(&[0.0, 1.0, 0.0, 0.0]));
        let e_far = Euclidean.distance(&v(&[1.0, 0.0, 0.0, 0.0]), &v(&[0.0, 0.0, 0.0, 1.0]));
        assert!((e_near - e_far).abs() < 1e-12);
    }

    #[test]
    fn price_outgrows_the_linear_default() {
        let q = QuadraticForm::identity(64);
        assert!(q.distance_price(256) > 10.0 * Euclidean.distance_price(256));
    }

    #[test]
    fn zero_distance_for_equal_vectors() {
        let q = QuadraticForm::histogram_similarity(8, 2.0);
        let a = v(&[0.1, 0.2, 0.3, 0.05, 0.05, 0.1, 0.1, 0.1]);
        assert_eq!(q.distance(&a, &a), 0.0);
    }

    #[test]
    #[should_panic(expected = "symmetric")]
    fn asymmetric_matrix_rejected() {
        let _ = QuadraticForm::new(2, vec![1.0, 0.5, 0.2, 1.0]);
    }

    #[test]
    #[should_panic(expected = "dim x dim")]
    fn wrong_size_matrix_rejected() {
        let _ = QuadraticForm::new(2, vec![1.0, 0.0, 0.0]);
    }
}
