//! Small dense complex matrices for gate unitaries and density operators.

use crate::C64;
use std::fmt;
use std::ops::{Add, AddAssign, Mul, Sub};

/// A dense square complex matrix (row-major).
///
/// Sizes stay tiny here (2×2 gate unitaries up to 64×64 Choi-state density
/// operators), so a straightforward `Vec<C64>` representation is the right
/// trade-off. The default value is the empty 0×0 matrix, which owns no
/// storage.
///
/// # Examples
///
/// ```
/// use dqc_sim::Matrix;
///
/// let x = Matrix::pauli_x();
/// let z = Matrix::pauli_z();
/// // XZ = -ZX: the anticommutator vanishes.
/// let anti = &(&x * &z) + &(&z * &x);
/// assert!(anti.approx_eq(&Matrix::zeros(2), 1e-12));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Matrix {
    dim: usize,
    data: Vec<C64>,
}

impl Matrix {
    /// Creates a `dim × dim` zero matrix.
    pub fn zeros(dim: usize) -> Self {
        Self {
            dim,
            data: vec![C64::ZERO; dim * dim],
        }
    }

    /// Creates the `dim × dim` identity.
    pub fn identity(dim: usize) -> Self {
        let mut m = Self::zeros(dim);
        for i in 0..dim {
            m[(i, i)] = C64::ONE;
        }
        m
    }

    /// Creates a matrix from rows of complex entries.
    ///
    /// # Panics
    ///
    /// Panics if the row count and row lengths do not form a square.
    pub fn from_rows(rows: &[&[C64]]) -> Self {
        let dim = rows.len();
        let mut data = Vec::with_capacity(dim * dim);
        for row in rows {
            assert_eq!(row.len(), dim, "matrix must be square");
            data.extend_from_slice(row);
        }
        Self { dim, data }
    }

    /// Creates a matrix from real-valued rows.
    ///
    /// # Panics
    ///
    /// Panics if the rows do not form a square.
    pub fn from_real_rows(rows: &[&[f64]]) -> Self {
        let dim = rows.len();
        let mut data = Vec::with_capacity(dim * dim);
        for row in rows {
            assert_eq!(row.len(), dim, "matrix must be square");
            data.extend(row.iter().map(|&x| C64::real(x)));
        }
        Self { dim, data }
    }

    /// Matrix dimension (rows = columns).
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Makes `self` the `dim × dim` zero matrix, reusing its storage.
    pub(crate) fn set_zeros(&mut self, dim: usize) {
        self.dim = dim;
        self.data.clear();
        self.data.resize(dim * dim, C64::ZERO);
    }

    /// Conjugate transpose.
    pub fn dagger(&self) -> Self {
        let mut out = Self::default();
        self.dagger_into(&mut out);
        out
    }

    /// Writes the conjugate transpose into `out`, reusing its storage.
    pub(crate) fn dagger_into(&self, out: &mut Self) {
        out.set_zeros(self.dim);
        for r in 0..self.dim {
            for c in 0..self.dim {
                out[(c, r)] = self[(r, c)].conj();
            }
        }
    }

    /// Writes the product `self · rhs` into `out`, reusing its storage.
    ///
    /// Each output row starts at zero and adds `self[(r, k)] · rhs[k, ..]`
    /// for `k` in increasing order, skipping exact zeros of `self` (never
    /// of `rhs`). `&a * &b` runs this same loop, so both round alike.
    ///
    /// # Panics
    ///
    /// Panics when the dimensions differ.
    pub(crate) fn mul_into(&self, rhs: &Self, out: &mut Self) {
        assert_eq!(self.dim, rhs.dim, "dimension mismatch");
        let n = self.dim;
        out.set_zeros(n);
        if n == 0 {
            return;
        }
        for (row, out_row) in self.data.chunks_exact(n).zip(out.data.chunks_exact_mut(n)) {
            for (&a, rhs_row) in row.iter().zip(rhs.data.chunks_exact(n)) {
                if a == C64::ZERO {
                    continue;
                }
                for (acc, &b) in out_row.iter_mut().zip(rhs_row) {
                    *acc += a * b;
                }
            }
        }
    }

    /// Trace.
    pub fn trace(&self) -> C64 {
        (0..self.dim).map(|i| self[(i, i)]).sum()
    }

    /// Multiplies every entry by a complex scalar.
    pub fn scale(&self, s: C64) -> Self {
        Self {
            dim: self.dim,
            data: self.data.iter().map(|&z| z * s).collect(),
        }
    }

    /// Kronecker product `self ⊗ other`.
    ///
    /// # Examples
    ///
    /// ```
    /// use dqc_sim::Matrix;
    /// let ii = Matrix::identity(2).kron(&Matrix::identity(2));
    /// assert_eq!(ii, Matrix::identity(4));
    /// ```
    pub fn kron(&self, other: &Self) -> Self {
        let d = self.dim * other.dim;
        let mut out = Self::zeros(d);
        for r1 in 0..self.dim {
            for c1 in 0..self.dim {
                let a = self[(r1, c1)];
                if a == C64::ZERO {
                    continue;
                }
                for r2 in 0..other.dim {
                    for c2 in 0..other.dim {
                        out[(r1 * other.dim + r2, c1 * other.dim + c2)] = a * other[(r2, c2)];
                    }
                }
            }
        }
        out
    }

    /// Returns true when the matrix is unitary to within `tol`.
    pub fn is_unitary(&self, tol: f64) -> bool {
        (self * &self.dagger()).approx_eq(&Self::identity(self.dim), tol)
    }

    /// Returns true when `self` and `other` commute to within `tol`.
    pub fn commutes_with(&self, other: &Self, tol: f64) -> bool {
        let ab = self * other;
        let ba = other * self;
        ab.approx_eq(&ba, tol)
    }

    /// Entry-wise approximate equality.
    pub fn approx_eq(&self, other: &Self, tol: f64) -> bool {
        self.dim == other.dim
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| a.approx_eq(*b, tol))
    }

    /// Returns true when the matrices are equal up to a global phase.
    pub fn approx_eq_up_to_phase(&self, other: &Self, tol: f64) -> bool {
        if self.dim != other.dim {
            return false;
        }
        // Find the first entry of `other` with significant magnitude and
        // derive the phase from it.
        let Some(idx) = other.data.iter().position(|z| z.norm() > tol) else {
            return self.approx_eq(other, tol);
        };
        if self.data[idx].norm() <= tol {
            return false;
        }
        let phase = self.data[idx] / other.data[idx];
        if (phase.norm() - 1.0).abs() > tol {
            return false;
        }
        self.approx_eq(&other.scale(phase), tol)
    }

    // ----- standard gate matrices -----

    /// Pauli X.
    pub fn pauli_x() -> Self {
        Self::from_real_rows(&[&[0.0, 1.0], &[1.0, 0.0]])
    }

    /// Pauli Y.
    pub fn pauli_y() -> Self {
        Self::from_rows(&[&[C64::ZERO, -C64::I], &[C64::I, C64::ZERO]])
    }

    /// Pauli Z.
    pub fn pauli_z() -> Self {
        Self::from_real_rows(&[&[1.0, 0.0], &[0.0, -1.0]])
    }

    /// Hadamard.
    pub fn hadamard() -> Self {
        let s = std::f64::consts::FRAC_1_SQRT_2;
        Self::from_real_rows(&[&[s, s], &[s, -s]])
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = C64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &C64 {
        &self.data[r * self.dim + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut C64 {
        &mut self.data[r * self.dim + c]
    }
}

impl Mul for &Matrix {
    type Output = Matrix;
    fn mul(self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.mul_into(rhs, &mut out);
        out
    }
}

impl AddAssign<&Matrix> for Matrix {
    fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.dim, rhs.dim, "dimension mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += *b;
        }
    }
}

impl Add for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: &Matrix) -> Matrix {
        let mut out = self.clone();
        out += rhs;
        out
    }
}

impl Sub for &Matrix {
    type Output = Matrix;
    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.dim, rhs.dim, "dimension mismatch");
        Matrix {
            dim: self.dim,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| *a - *b)
                .collect(),
        }
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.dim {
            for c in 0..self.dim {
                write!(f, "{} ", self[(r, c)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f64 = 1e-12;

    #[test]
    fn identity_is_multiplicative_unit() {
        let x = Matrix::pauli_x();
        let i = Matrix::identity(2);
        assert!((&x * &i).approx_eq(&x, TOL));
        assert!((&i * &x).approx_eq(&x, TOL));
    }

    #[test]
    fn paulis_are_unitary_and_hermitian() {
        for p in [Matrix::pauli_x(), Matrix::pauli_y(), Matrix::pauli_z()] {
            assert!(p.is_unitary(TOL));
            assert!(p.approx_eq(&p.dagger(), TOL));
            assert!((&p * &p).approx_eq(&Matrix::identity(2), TOL));
        }
    }

    #[test]
    fn hadamard_conjugates_x_to_z() {
        let h = Matrix::hadamard();
        let hxh = &(&h * &Matrix::pauli_x()) * &h;
        assert!(hxh.approx_eq(&Matrix::pauli_z(), TOL));
    }

    #[test]
    fn xy_equals_iz() {
        let xy = &Matrix::pauli_x() * &Matrix::pauli_y();
        let iz = Matrix::pauli_z().scale(C64::I);
        assert!(xy.approx_eq(&iz, TOL));
    }

    #[test]
    fn kron_dimensions_and_values() {
        let zx = Matrix::pauli_z().kron(&Matrix::pauli_x());
        assert_eq!(zx.dim(), 4);
        assert_eq!(zx[(0, 1)], C64::ONE);
        assert_eq!(zx[(2, 3)], C64::real(-1.0));
    }

    #[test]
    fn trace_of_paulis_is_zero() {
        for p in [Matrix::pauli_x(), Matrix::pauli_y(), Matrix::pauli_z()] {
            assert!(p.trace().approx_eq(C64::ZERO, TOL));
        }
        assert!(Matrix::identity(4).trace().approx_eq(C64::real(4.0), TOL));
    }

    #[test]
    fn commutation_checks() {
        let x = Matrix::pauli_x();
        let z = Matrix::pauli_z();
        assert!(!x.commutes_with(&z, TOL));
        assert!(x.commutes_with(&x, TOL));
        assert!(x.commutes_with(&Matrix::identity(2), TOL));
    }

    #[test]
    fn phase_insensitive_equality() {
        let z = Matrix::pauli_z();
        let minus_z = z.scale(C64::real(-1.0));
        assert!(z.approx_eq_up_to_phase(&minus_z, TOL));
        assert!(!z.approx_eq(&minus_z, TOL));
        let iz = z.scale(C64::I);
        assert!(z.approx_eq_up_to_phase(&iz, TOL));
        assert!(!z.approx_eq_up_to_phase(&Matrix::pauli_x(), TOL));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mismatched_mul_panics() {
        let _ = &Matrix::identity(2) * &Matrix::identity(4);
    }
}
