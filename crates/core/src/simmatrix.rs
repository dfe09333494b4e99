//! Dense similarity matrices.
//!
//! All of Cupid's similarity coefficients (`lsim`, `ssim`, `wsim`) live in
//! dense row-major `f64` matrices indexed by arena indices. Schemas in the
//! paper's experiments have tens to hundreds of elements, and even the
//! scalability sweep (thousands of nodes) fits comfortably; density buys
//! branch-free lookups in TreeMatch's inner loops.

/// A dense row-major matrix of similarity coefficients.
#[derive(Debug, Clone, PartialEq)]
pub struct SimMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl SimMatrix {
    /// A `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        SimMatrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Read entry `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Write entry `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] = v;
    }

    /// Multiply entry `(i, j)` by `factor`, clamping into `[0, 1]`.
    #[inline]
    pub fn scale_clamped(&mut self, i: usize, j: usize, factor: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        let cell = &mut self.data[i * self.cols + j];
        *cell = (*cell * factor).clamp(0.0, 1.0);
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Row `i` as a mutable slice.
    #[inline]
    pub(crate) fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Iterate over all `(i, j, value)` entries.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        let cols = self.cols;
        self.data.iter().enumerate().map(move |(k, &v)| (k / cols, k % cols, v))
    }

    /// Maximum absolute difference to another matrix of the same shape.
    /// Used by tests asserting eager/lazy expansion equivalence.
    pub fn max_abs_diff(&self, other: &SimMatrix) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "shape mismatch");
        self.data.iter().zip(&other.data).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_set_scale() {
        let mut m = SimMatrix::zeros(2, 3);
        m.set(1, 2, 0.5);
        assert_eq!(m.get(1, 2), 0.5);
        m.scale_clamped(1, 2, 1.2);
        assert!((m.get(1, 2) - 0.6).abs() < 1e-12);
        m.scale_clamped(1, 2, 10.0);
        assert_eq!(m.get(1, 2), 1.0); // clamped
        assert_eq!(m.get(0, 0), 0.0);
    }

    #[test]
    fn iter_yields_all_entries() {
        let mut m = SimMatrix::zeros(2, 2);
        m.set(0, 1, 0.25);
        let entries: Vec<(usize, usize, f64)> = m.iter().collect();
        assert_eq!(entries.len(), 4);
        assert!(entries.contains(&(0, 1, 0.25)));
    }

    #[test]
    fn max_abs_diff() {
        let mut a = SimMatrix::zeros(2, 2);
        let mut b = SimMatrix::zeros(2, 2);
        a.set(0, 0, 0.5);
        b.set(0, 0, 0.75);
        assert!((a.max_abs_diff(&b) - 0.25).abs() < 1e-12);
        assert_eq!(a.max_abs_diff(&a), 0.0);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn max_abs_diff_shape_mismatch_panics() {
        let a = SimMatrix::zeros(2, 2);
        let b = SimMatrix::zeros(2, 3);
        let _ = a.max_abs_diff(&b);
    }
}
