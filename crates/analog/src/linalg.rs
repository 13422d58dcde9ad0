//! Dense linear algebra for the MNA solver.
//!
//! Circuit matrices here are tiny (a 4-bit ladder has ~17 nodes), so a dense
//! row-major matrix with LU-style Gaussian elimination and partial pivoting
//! is both the simplest and the fastest appropriate tool. No external linear
//! algebra dependency is warranted.

use core::fmt;

/// A dense row-major matrix of `f64`.
///
/// ```
/// use printed_analog::linalg::Matrix;
///
/// let mut m = Matrix::zeros(2, 2);
/// m[(0, 0)] = 2.0;
/// m[(1, 1)] = 4.0;
/// let x = m.solve(&[6.0, 8.0])?;
/// assert_eq!(x, vec![3.0, 2.0]);
/// # Ok::<(), printed_analog::linalg::SolveError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Matrix–vector product `self · v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn mul_vec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols, "dimension mismatch in mul_vec");
        (0..self.rows)
            .map(|r| (0..self.cols).map(|c| self[(r, c)] * v[c]).sum())
            .collect()
    }

    /// Solves `self · x = b` by Gaussian elimination with partial pivoting.
    ///
    /// The receiver is borrowed immutably; elimination happens on a copy
    /// through [`solve_in_place`] (matrices here are tiny).
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::Singular`] when a pivot falls below the
    /// numerical tolerance — for MNA systems this almost always means a
    /// floating node or a loop of ideal voltage sources.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square or `b.len() != self.rows()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, SolveError> {
        assert_eq!(self.rows, self.cols, "solve requires a square matrix");
        assert_eq!(b.len(), self.rows, "rhs length must match matrix order");
        let mut a = self.data.clone();
        let mut x = b.to_vec();
        solve_in_place(self.rows, &mut a, &mut x)?;
        Ok(x)
    }
}

/// Solves `a · x = b` in place by Gaussian elimination with partial
/// pivoting: `a` is an `n × n` row-major matrix and is overwritten by its
/// eliminated form; `x` holds `b` on entry and the solution on exit.
///
/// This is the one elimination routine of the crate — [`Matrix::solve`]
/// runs it on a copy, and the Monte-Carlo ladder sampler runs the same
/// operations restricted to its string's nonzero entries, calling it on a
/// reused buffer wherever the restriction could round differently — so
/// every caller gets bit-identical results for the same system.
///
/// # Errors
///
/// Returns [`SolveError::Singular`] when a pivot falls below the
/// numerical tolerance, as for [`Matrix::solve`]. `a` and `x` are then
/// partially eliminated.
///
/// # Panics
///
/// Panics if `a.len() != n * n` or `x.len() != n`.
///
/// ```
/// use printed_analog::linalg::solve_in_place;
///
/// let mut a = [0.0, 1.0, 1.0, 0.0];
/// let mut x = [3.0, 7.0];
/// solve_in_place(2, &mut a, &mut x)?;
/// assert_eq!(x, [7.0, 3.0]);
/// # Ok::<(), printed_analog::linalg::SolveError>(())
/// ```
pub fn solve_in_place(n: usize, a: &mut [f64], x: &mut [f64]) -> Result<(), SolveError> {
    assert_eq!(a.len(), n * n, "matrix must be n × n");
    assert_eq!(x.len(), n, "rhs length must match matrix order");
    // Scale tolerance by the largest entry so ill-conditioned but valid
    // systems (kΩ vs siemens mixtures) are not misreported as singular.
    let max_abs = a.iter().fold(0.0_f64, |m, &v| m.max(v.abs())).max(1.0);
    let tol = 1e-12 * max_abs;

    for col in 0..n {
        // Partial pivot: find the largest |entry| at or below the diagonal.
        let pivot_row = (col..n)
            .max_by(|&r1, &r2| {
                a[r1 * n + col]
                    .abs()
                    .partial_cmp(&a[r2 * n + col].abs())
                    .expect("matrix entries must not be NaN")
            })
            .expect("non-empty pivot range");
        if a[pivot_row * n + col].abs() <= tol {
            return Err(SolveError::Singular { column: col });
        }
        if pivot_row != col {
            for k in 0..n {
                a.swap(col * n + k, pivot_row * n + k);
            }
            x.swap(col, pivot_row);
        }
        let pivot = a[col * n + col];
        for row in (col + 1)..n {
            let factor = a[row * n + col] / pivot;
            if factor == 0.0 {
                continue;
            }
            for k in col..n {
                a[row * n + k] -= factor * a[col * n + k];
            }
            x[row] -= factor * x[col];
        }
    }
    // Back substitution.
    for col in (0..n).rev() {
        let mut acc = x[col];
        for k in (col + 1)..n {
            acc -= a[col * n + k] * x[k];
        }
        x[col] = acc / a[col * n + col];
    }
    Ok(())
}

impl core::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &self.data[r * self.cols + c]
    }
}

impl core::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &mut self.data[r * self.cols + c]
    }
}

/// Error returned by [`Matrix::solve`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveError {
    /// The matrix is (numerically) singular; `column` is the elimination
    /// column where the pivot vanished.
    Singular {
        /// Elimination column at which no usable pivot was found.
        column: usize,
    },
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Singular { column } => {
                write!(f, "singular system: no pivot in column {column}")
            }
        }
    }
}

impl std::error::Error for SolveError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_diagonal_system() {
        let mut m = Matrix::zeros(3, 3);
        m[(0, 0)] = 2.0;
        m[(1, 1)] = 5.0;
        m[(2, 2)] = 0.5;
        let x = m.solve(&[4.0, 10.0, 1.0]).unwrap();
        assert_eq!(x, vec![2.0, 2.0, 2.0]);
    }

    #[test]
    fn solves_system_requiring_pivoting() {
        // First pivot is zero; naive elimination would fail.
        let mut m = Matrix::zeros(2, 2);
        m[(0, 0)] = 0.0;
        m[(0, 1)] = 1.0;
        m[(1, 0)] = 1.0;
        m[(1, 1)] = 0.0;
        let x = m.solve(&[3.0, 7.0]).unwrap();
        assert_eq!(x, vec![7.0, 3.0]);
    }

    #[test]
    fn detects_singular_matrix() {
        let mut m = Matrix::zeros(2, 2);
        m[(0, 0)] = 1.0;
        m[(0, 1)] = 2.0;
        m[(1, 0)] = 2.0;
        m[(1, 1)] = 4.0;
        let err = m.solve(&[1.0, 2.0]).unwrap_err();
        assert!(matches!(err, SolveError::Singular { column: 1 }));
        assert!(err.to_string().contains("singular"));
    }

    #[test]
    fn in_place_solve_reports_the_same_singular_column() {
        let mut a = [1.0, 2.0, 2.0, 4.0];
        let mut x = [1.0, 2.0];
        assert_eq!(
            solve_in_place(2, &mut a, &mut x),
            Err(SolveError::Singular { column: 1 })
        );
    }

    #[test]
    fn residual_is_small_for_dense_system() {
        // A modest but well-conditioned dense system.
        let n = 8;
        let mut m = Matrix::zeros(n, n);
        for r in 0..n {
            for c in 0..n {
                m[(r, c)] = 1.0 / (1.0 + (r as f64 - c as f64).abs());
            }
            m[(r, r)] += n as f64; // diagonally dominant
        }
        let b: Vec<f64> = (0..n).map(|i| (i as f64) - 3.5).collect();
        let x = m.solve(&b).unwrap();
        let r = m.mul_vec(&x);
        for (ri, bi) in r.iter().zip(&b) {
            assert!((ri - bi).abs() < 1e-9);
        }
    }

    #[test]
    fn identity_solve_is_rhs() {
        let m = Matrix::identity(4);
        let b = [1.0, -2.0, 3.5, 0.0];
        assert_eq!(m.solve(&b).unwrap(), b.to_vec());
    }

    #[test]
    #[should_panic(expected = "square")]
    fn solve_panics_on_rectangular() {
        Matrix::zeros(2, 3).solve(&[0.0, 0.0]).ok();
    }
}
