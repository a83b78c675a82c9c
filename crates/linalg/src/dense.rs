//! Small dense matrices with LU factorisation.
//!
//! These are used for the per-block factors of the block-Jacobi
//! preconditioner and for the small least-squares system appearing in the
//! GMRES restart; they are not intended for large dense problems.
//!
//! [`DenseMatrix::lu`] eliminates densely with partial pivoting but keeps
//! its result sparsely: [`LuFactors`] stores the strictly lower L and the
//! strictly upper U as CSR matrices with exact zeros dropped, plus the
//! diagonal of U. The diagonal blocks of the paper's sparse benchmark have
//! no fill-in, so a solve costs O(nnz(L + U) + n) instead of O(n²).
//! Elimination skips the row update of any multiplier that is exactly
//! `0.0`; that update would only subtract exact zeros.
//!
//! A solve sums each row's stored products in ascending column order from
//! where `Iterator::sum` starts, exactly as a dense row dot product would,
//! and skips the subtraction for a row with no stored entries. The products
//! it leaves out are `0.0 · x_j`, exact zeros that cannot change a non-zero
//! partial sum, so for finite inputs every result equals that of a dense
//! triangular solve: the same bits, except that a zero may differ in sign
//! (`==` holds either way).

use crate::csr::CsrMatrix;
use crate::norms::max_norm;
use crate::operator::LinearOperator;
use serde::{Deserialize, Serialize};

/// A dense row-major matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DenseMatrix {
    nrows: usize,
    ncols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// A zero matrix of the given shape.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        Self {
            nrows,
            ncols,
            data: vec![0.0; nrows * ncols],
        }
    }

    /// The identity matrix of dimension `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != nrows * ncols`.
    pub fn from_rows(nrows: usize, ncols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), nrows * ncols, "from_rows: data length mismatch");
        Self { nrows, ncols, data }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Matrix-vector product `y = A·x`.
    pub fn matvec(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "matvec: x length mismatch");
        assert_eq!(y.len(), self.nrows, "matvec: y length mismatch");
        for (i, yi) in y.iter_mut().enumerate() {
            let row = &self.data[i * self.ncols..(i + 1) * self.ncols];
            *yi = row.iter().zip(x).map(|(a, b)| a * b).sum();
        }
    }

    /// Allocating variant of [`DenseMatrix::matvec`].
    pub fn matvec_alloc(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.nrows];
        self.matvec(x, &mut y);
        y
    }

    /// Matrix-matrix product `A·B`.
    pub fn matmul(&self, other: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.ncols, other.nrows, "matmul: inner dimension mismatch");
        let mut out = DenseMatrix::zeros(self.nrows, other.ncols);
        for i in 0..self.nrows {
            for k in 0..self.ncols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..other.ncols {
                    out[(i, j)] += a * other[(k, j)];
                }
            }
        }
        out
    }

    /// Computes an LU factorisation with partial pivoting and packs the
    /// factors sparsely (see the module docs).
    ///
    /// Returns `None` when the matrix is (numerically) singular.
    pub fn lu(&self) -> Option<LuFactors> {
        assert_eq!(self.nrows, self.ncols, "lu: matrix must be square");
        let n = self.nrows;
        let mut lu = self.data.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        for k in 0..n {
            // pivot selection
            let mut pivot_row = k;
            let mut pivot_val = lu[k * n + k].abs();
            for i in (k + 1)..n {
                let v = lu[i * n + k].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = i;
                }
            }
            if pivot_val < 1e-300 {
                return None;
            }
            if pivot_row != k {
                for j in 0..n {
                    lu.swap(k * n + j, pivot_row * n + j);
                }
                perm.swap(k, pivot_row);
            }
            let pivot = lu[k * n + k];
            for i in (k + 1)..n {
                let factor = lu[i * n + k] / pivot;
                lu[i * n + k] = factor;
                if factor == 0.0 {
                    continue;
                }
                for j in (k + 1)..n {
                    lu[i * n + j] -= factor * lu[k * n + j];
                }
            }
        }
        Some(LuFactors::pack(n, &lu, perm))
    }

    /// Solves `A·x = b` via LU with partial pivoting.
    ///
    /// Returns `None` when the matrix is singular.
    pub fn solve(&self, b: &[f64]) -> Option<Vec<f64>> {
        self.lu().map(|f| f.solve(b))
    }

    /// The inverse matrix, if it exists.
    pub fn inverse(&self) -> Option<DenseMatrix> {
        let f = self.lu()?;
        let n = self.nrows;
        let mut inv = DenseMatrix::zeros(n, n);
        let mut e = vec![0.0; n];
        let mut col = vec![0.0; n];
        for j in 0..n {
            e.iter_mut().for_each(|v| *v = 0.0);
            e[j] = 1.0;
            f.solve_into(&e, &mut col);
            for i in 0..n {
                inv[(i, j)] = col[i];
            }
        }
        Some(inv)
    }

    /// Transposes the matrix.
    pub fn transpose(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.ncols, self.nrows);
        for i in 0..self.nrows {
            for j in 0..self.ncols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Maximum absolute entry of the matrix; NaN if any entry is NaN.
    pub fn max_abs(&self) -> f64 {
        max_norm(&self.data)
    }
}

impl std::ops::Index<(usize, usize)> for DenseMatrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.ncols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for DenseMatrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.ncols + j]
    }
}

impl LinearOperator for DenseMatrix {
    fn dim(&self) -> usize {
        assert_eq!(
            self.nrows, self.ncols,
            "LinearOperator requires a square matrix"
        );
        self.nrows
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.matvec(x, y);
    }
}

/// The result of an LU factorisation with partial pivoting, `P·A = L·U`,
/// stored over its non-zeros (see the module docs).
#[derive(Debug, Clone)]
pub struct LuFactors {
    /// Strictly lower part of L (unit diagonal implied), exact zeros dropped.
    lower: CsrMatrix,
    /// Strictly upper part of U, exact zeros dropped.
    upper: CsrMatrix,
    /// Diagonal of U.
    diag: Vec<f64>,
    /// Row permutation: row `i` of the factorised matrix is row `perm[i]` of A.
    perm: Vec<usize>,
}

impl LuFactors {
    /// Packs the combined row-major `n × n` factor buffer of an elimination
    /// (L strictly below the diagonal, U on and above it).
    fn pack(n: usize, lu: &[f64], perm: Vec<usize>) -> Self {
        let stored = |keep: fn(usize, usize) -> bool| {
            let entries = (0..n)
                .flat_map(|i| (0..n).map(move |j| (i, j, lu[i * n + j])))
                .filter(|&(i, j, v)| keep(i, j) && v != 0.0);
            CsrMatrix::from_triplets(n, n, entries)
        };
        Self {
            lower: stored(|i, j| j < i),
            upper: stored(|i, j| j > i),
            diag: (0..n).map(|i| lu[i * n + i]).collect(),
            perm,
        }
    }

    /// Solves `A·x = b` using the stored factors.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; self.dim()];
        self.solve_into(b, &mut x);
        x
    }

    /// Solves `A·x = b` into `x`, allocating nothing: forward and backward
    /// substitution over the stored entries only.
    ///
    /// # Panics
    /// Panics if `b` or `x` does not have length [`LuFactors::dim`].
    pub fn solve_into(&self, b: &[f64], x: &mut [f64]) {
        let n = self.dim();
        assert_eq!(b.len(), n, "LuFactors::solve: rhs length mismatch");
        assert_eq!(x.len(), n, "LuFactors::solve: solution length mismatch");
        for (xi, &p) in x.iter_mut().zip(&self.perm) {
            *xi = b[p];
        }
        // forward substitution (L has unit diagonal); a row with no stored
        // entries has nothing to subtract
        for i in 0..n {
            if self.lower.row_nnz(i) > 0 {
                let dot: f64 = self.lower.row(i).map(|(j, l)| l * x[j]).sum();
                x[i] -= dot;
            }
        }
        // backward substitution
        for i in (0..n).rev() {
            if self.upper.row_nnz(i) > 0 {
                let dot: f64 = self.upper.row(i).map(|(j, u)| u * x[j]).sum();
                x[i] -= dot;
            }
            x[i] /= self.diag[i];
        }
    }

    /// Dimension of the factorised matrix.
    pub fn dim(&self) -> usize {
        self.diag.len()
    }

    /// Number of stored off-diagonal entries of L and U, the solve's cost
    /// beyond the diagonal.
    pub fn off_diagonal_nnz(&self) -> usize {
        self.lower.nnz() + self.upper.nnz()
    }
}

/// Test-only copy of the dense factorisation and solve that [`LuFactors`]
/// replaced: the combined factor buffer is kept whole, every row update
/// runs, and both substitutions run over full dense rows. The sparse solve
/// must reproduce it component for component.
#[cfg(test)]
pub(crate) mod reference {
    use super::DenseMatrix;

    /// Dense LU factors with partial pivoting, `P·A = L·U`, in one buffer.
    pub(crate) struct DenseLu {
        n: usize,
        lu: Vec<f64>,
        perm: Vec<usize>,
    }

    impl DenseLu {
        /// Factorises `a`; `None` when it is singular.
        pub(crate) fn new(a: &DenseMatrix) -> Option<Self> {
            let n = a.nrows();
            let mut lu = a.data.clone();
            let mut perm: Vec<usize> = (0..n).collect();
            for k in 0..n {
                let mut pivot_row = k;
                let mut pivot_val = lu[k * n + k].abs();
                for i in (k + 1)..n {
                    let v = lu[i * n + k].abs();
                    if v > pivot_val {
                        pivot_val = v;
                        pivot_row = i;
                    }
                }
                if pivot_val < 1e-300 {
                    return None;
                }
                if pivot_row != k {
                    for j in 0..n {
                        lu.swap(k * n + j, pivot_row * n + j);
                    }
                    perm.swap(k, pivot_row);
                }
                let pivot = lu[k * n + k];
                for i in (k + 1)..n {
                    let factor = lu[i * n + k] / pivot;
                    lu[i * n + k] = factor;
                    for j in (k + 1)..n {
                        lu[i * n + j] -= factor * lu[k * n + j];
                    }
                }
            }
            Some(Self { n, lu, perm })
        }

        /// Solves `A·x = b` over the full dense rows of the factors.
        pub(crate) fn solve(&self, b: &[f64]) -> Vec<f64> {
            let (n, lu) = (self.n, &self.lu);
            let mut x: Vec<f64> = (0..n).map(|i| b[self.perm[i]]).collect();
            for i in 1..n {
                let row = &lu[i * n..i * n + i];
                let dot: f64 = row.iter().zip(&x[..i]).map(|(l, xj)| l * xj).sum();
                x[i] -= dot;
            }
            for i in (0..n).rev() {
                let row = &lu[i * n + i + 1..(i + 1) * n];
                let dot: f64 = row.iter().zip(&x[i + 1..]).map(|(u, xj)| u * xj).sum();
                x[i] = (x[i] - dot) / lu[i * n + i];
            }
            x
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn matvec_matches_hand_computed_value() {
        let a = DenseMatrix::from_rows(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.matvec_alloc(&[1.0, 1.0, 1.0]), vec![6.0, 15.0]);
    }

    #[test]
    fn identity_solve_returns_rhs() {
        let a = DenseMatrix::identity(3);
        assert_eq!(a.solve(&[1.0, 2.0, 3.0]).unwrap(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn solve_small_system() {
        // [2 1; 1 3] x = [3; 5]  =>  x = [0.8, 1.4]
        let a = DenseMatrix::from_rows(2, 2, vec![2.0, 1.0, 1.0, 3.0]);
        let x = a.solve(&[3.0, 5.0]).unwrap();
        assert!((x[0] - 0.8).abs() < 1e-12);
        assert!((x[1] - 1.4).abs() < 1e-12);
    }

    #[test]
    fn solve_requires_pivoting() {
        // leading zero pivot forces a row swap
        let a = DenseMatrix::from_rows(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
        let x = a.solve(&[2.0, 3.0]).unwrap();
        assert_eq!(x, vec![3.0, 2.0]);
    }

    #[test]
    fn singular_matrix_is_detected() {
        let a = DenseMatrix::from_rows(2, 2, vec![1.0, 2.0, 2.0, 4.0]);
        assert!(a.solve(&[1.0, 1.0]).is_none());
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let a = DenseMatrix::from_rows(3, 3, vec![4.0, 1.0, 0.0, 1.0, 3.0, 1.0, 0.0, 1.0, 2.0]);
        let inv = a.inverse().unwrap();
        let prod = a.matmul(&inv);
        for i in 0..3 {
            for j in 0..3 {
                let expected = if i == j { 1.0 } else { 0.0 };
                assert!((prod[(i, j)] - expected).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn transpose_swaps_indices() {
        let a = DenseMatrix::from_rows(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let t = a.transpose();
        assert_eq!(t.nrows(), 3);
        assert_eq!(t[(2, 1)], 6.0);
    }

    #[test]
    fn matmul_with_identity_is_identity_operation() {
        let a = DenseMatrix::from_rows(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let i = DenseMatrix::identity(2);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn max_abs_finds_largest_entry() {
        let a = DenseMatrix::from_rows(2, 2, vec![1.0, -7.0, 3.0, 4.0]);
        assert_eq!(a.max_abs(), 7.0);
    }

    #[test]
    fn max_abs_propagates_nan() {
        let a = DenseMatrix::from_rows(2, 2, vec![1.0, f64::NAN, 3.0, 4.0]);
        assert!(a.max_abs().is_nan());
    }

    #[test]
    fn factors_store_only_the_non_zeros() {
        // tridiagonal: no fill-in, so L + U hold the two off-diagonals only
        let n = 6;
        let mut a = DenseMatrix::zeros(n, n);
        for i in 0..n {
            a[(i, i)] = 4.0;
            if i > 0 {
                a[(i, i - 1)] = -1.0;
                a[(i - 1, i)] = -1.0;
            }
        }
        let f = a.lu().unwrap();
        assert_eq!(f.off_diagonal_nnz(), 2 * (n - 1));
        assert_eq!(DenseMatrix::identity(5).lu().unwrap().off_diagonal_nnz(), 0);
        assert_eq!(DenseMatrix::zeros(0, 0).lu().unwrap().dim(), 0);
    }

    proptest! {
        /// A random sparse, diagonally dominant system with its rows
        /// shuffled, so partial pivoting has to swap rows. The sparse solve
        /// equals the dense reference component for component, and solving
        /// then multiplying gives the right-hand side back.
        #[test]
        fn prop_solve_then_multiply_roundtrip(
            n in 1usize..12,
            density in 0.0f64..1.0,
            seed in 0u64..500,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let mut dominant = DenseMatrix::zeros(n, n);
            for i in 0..n {
                let mut row_sum = 0.0;
                for j in 0..n {
                    if i != j && rng.gen_bool(density) {
                        let v = rng.gen_range(-1.0..1.0);
                        dominant[(i, j)] = v;
                        row_sum += v.abs();
                    }
                }
                dominant[(i, i)] = row_sum + 1.0;
            }
            let mut order: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                order.swap(i, rng.gen_range(0..i + 1));
            }
            let mut a = DenseMatrix::zeros(n, n);
            for (to, &from) in order.iter().enumerate() {
                for j in 0..n {
                    a[(to, j)] = dominant[(from, j)];
                }
            }
            let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let x = a.solve(&b).unwrap();
            let expected = reference::DenseLu::new(&a).unwrap().solve(&b);
            prop_assert_eq!(&x, &expected);
            let back = a.matvec_alloc(&x);
            for i in 0..n {
                prop_assert!((back[i] - b[i]).abs() < 1e-9);
            }
        }
    }
}
