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

    /// Maximum entry in row `i` with its column, `None` for empty rows.
    ///
    /// The sweep is a branchless select chain — the update predicate is
    /// `!(best >= v)`, the exact condition of the old `match` fold, so
    /// first-index-on-ties and NaN handling (a NaN `best` loses to
    /// anything, a NaN `v` never wins over a non-NaN `best`) are
    /// bit-for-bit preserved while the loop body stays free of
    /// unpredictable branches.
    // The negated comparison is the point: `partial_cmp` would change
    // which side NaN falls on.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    #[inline]
    pub fn row_max(&self, i: usize) -> Option<(usize, f64)> {
        let (&first, rest) = self.row(i).split_first()?;
        let mut best_j = 0usize;
        let mut best_v = first;
        for (off, &v) in rest.iter().enumerate() {
            let take = !(best_v >= v);
            best_j = if take { off + 1 } else { best_j };
            best_v = if take { v } else { best_v };
        }
        Some((best_j, best_v))
    }

    /// Maximum entry in column `j` with its row, `None` for empty columns.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    #[inline]
    pub fn col_max(&self, j: usize) -> Option<(usize, f64)> {
        if self.rows == 0 || self.cols == 0 {
            return None;
        }
        // Walk rows as slices (one strided load per row) instead of
        // recomputing `i * cols + j` bounds-checked per cell; same
        // branchless `!(best >= v)` select chain as [`SimMatrix::row_max`].
        let mut best_i = 0usize;
        let mut best_v = self.data[j];
        for (i, row) in self.data.chunks_exact(self.cols).enumerate().skip(1) {
            let v = row[j];
            let take = !(best_v >= v);
            best_i = if take { i } else { best_i };
            best_v = if take { v } else { best_v };
        }
        Some((best_i, best_v))
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
    fn row_and_col_max_prefer_first_on_ties() {
        let mut m = SimMatrix::zeros(2, 3);
        m.set(0, 1, 0.7);
        m.set(0, 2, 0.7);
        assert_eq!(m.row_max(0), Some((1, 0.7)));
        m.set(1, 1, 0.7);
        assert_eq!(m.col_max(1), Some((0, 0.7)));
    }

    /// The pre-restructuring scalar fold `row_max`/`col_max` were
    /// defined by: update `best` whenever `!(best >= v)`.
    fn reference_max(values: impl Iterator<Item = f64>) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for (i, v) in values.enumerate() {
            match best {
                Some((_, bv)) if bv >= v => {}
                _ => best = Some((i, v)),
            }
        }
        best
    }

    #[test]
    fn max_sweeps_match_scalar_reference_including_nan() {
        // Deterministic mix of ordinary values, ties, NaN and -0.0 —
        // the branchless sweep must agree with the scalar fold on
        // index *and* bit pattern everywhere.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            match state % 8 {
                0 => f64::NAN,
                1 => -0.0,
                2 => 0.0,
                3 => 0.7, // frequent value → ties
                _ => (state % 1000) as f64 / 1000.0,
            }
        };
        for (rows, cols) in [(1, 1), (3, 5), (7, 4), (16, 16)] {
            let mut m = SimMatrix::zeros(rows, cols);
            for i in 0..rows {
                for j in 0..cols {
                    m.set(i, j, next());
                }
            }
            for i in 0..rows {
                let got = m.row_max(i);
                let want = reference_max(m.row(i).iter().copied());
                assert_eq!(got.map(|(j, v)| (j, v.to_bits())), want.map(|(j, v)| (j, v.to_bits())));
            }
            for j in 0..cols {
                let got = m.col_max(j);
                let want = reference_max((0..rows).map(|i| m.get(i, j)));
                assert_eq!(got.map(|(i, v)| (i, v.to_bits())), want.map(|(i, v)| (i, v.to_bits())));
            }
        }
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
